"""The command-line surface: exit codes, determinism, file round trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import smachine
from smachine import checks
from smachine.checks import CheckReport, read_reports, write_reports
from smachine.cli import main
from smachine.machine import run_history

# The directory that holds the imported package: ``src`` under
# ``PYTHONPATH=src``, the checkout's ``src`` under ``pip install -e .``.
PACKAGE_ROOT = str(Path(smachine.__file__).resolve().parent.parent)


def run_python(argv, **env):
    """Run ``python ARGV`` in a child interpreter.

    The child inherits this process's environment, with ``env``
    overriding it and the package's root prepended to ``PYTHONPATH``,
    so it imports the same ``smachine`` whether or not it is installed.
    """
    child_env = dict(os.environ, **env)
    child_env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, child_env.get("PYTHONPATH")) if p
    )
    return subprocess.run([sys.executable, *argv], capture_output=True, env=child_env)


def run_child(args, **env):
    """Run ``python -m smachine.cli ARGS`` in a child interpreter."""
    return run_python(["-m", "smachine.cli", *args], **env)


def run_cli(args, tmp_path=None):
    import contextlib
    import io

    buf = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(buf):
        try:
            code = main(args)
        except SystemExit as e:
            code = e.code
    return code, buf.getvalue()


def test_build_and_simulate(tmp_path):
    mfile = tmp_path / "lr.txt"
    man = tmp_path / "lr.json"
    code, _ = run_cli(["build", "--lr", "a", "-o", str(mfile), "--manifest", str(man)])
    assert code == 0
    doc = json.loads(man.read_text())
    assert doc["machine"] == "LR" and doc["positive_rules"] == 3
    code, out = run_cli(
        ["simulate", "--machine", str(mfile), "--word", "q1 a p1 q2", "--history", "z1_a z12 z2_a"]
    )
    assert code == 0
    assert out.strip().endswith("q1 a p2 q2")


def test_build_main_manifest(tmp_path):
    mfile = tmp_path / "m.txt"
    man = tmp_path / "m.json"
    code, _ = run_cli(
        ["build", "--main", "--m", "2", "--L", "12", "--toy-even", "-o", str(mfile), "--manifest", str(man)]
    )
    assert code == 0
    doc = json.loads(man.read_text())
    assert doc["m"] == 2 and doc["L"] == 12 and doc["N"] == 25
    assert doc["c4"] is None  # recorded as metadata only
    # the canonical file parses back
    from smachine.serialize import parse_machine

    parse_machine(mfile.read_text())


def test_enumerate_deterministic(tmp_path):
    mfile = tmp_path / "lr.txt"
    run_cli(["build", "--lr", "a", "-o", str(mfile)])
    outs = []
    for _ in range(2):
        code, out = run_cli(
            ["enumerate", "--machine", str(mfile), "--word", "q1 a p1 q2", "--depth", "3"]
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_enumerate_eligible_allows_the_mixed_transition(tmp_path, session_bundle):
    # the eligible filter reads theta(23) off the machine file's tags
    mfile = tmp_path / "main.txt"
    assert run_cli(["build", "--main", "-o", str(mfile)])[0] == 0
    b = session_bundle
    comp = run_history(b.machine, b.w_st, b.witness_wst_to_wkk(1))
    assert comp.end == b.w_word(1, 1)
    word = str(comp.trace[-2])
    counts = {}
    for filt in ("eligible", "reduced"):
        code, out = run_cli(
            ["enumerate", "--machine", str(mfile), "--word", word, "--depth", "4", "--filter", filt]
        )
        assert code == 0
        counts[filt] = len(out.splitlines())
    assert counts == {"eligible": 129, "reduced": 123}


def test_verify_exit_codes(tmp_path):
    code, out = run_cli(["verify", "--suite", "lr-bound", "--max-tape", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"


def test_verify_exits_2_on_a_failing_suite(monkeypatch, capsys):
    """A ``fail`` report is the verification exit; ``verify`` hands
    ``--ks`` and ``--jobs`` to the suites as read."""
    seen = {}

    def run_suites(names, **opts):
        seen.update(opts, names=names)
        return [CheckReport("periodic-distinctness", "pass"), CheckReport("accepted-language", "fail")]

    monkeypatch.setattr(checks, "run_suites", run_suites)
    assert main(["verify", "--suite", "accepted-language", "--ks", "0,2", "--jobs", "2"]) == 2
    assert (seen["names"], seen["ks"], seen["jobs"]) == ("accepted-language", (0, 2), 2)
    assert [d["status"] for d in read_reports(capsys.readouterr().out)] == ["pass", "fail"]


def test_report_renders_notes_and_exits_2_on_a_fail(capsys, tmp_path):
    """``report`` notes a cut depth, each scalar stat (not a list or an
    object) and a counterexample, and exits 2 when a report failed."""
    rep = tmp_path / "reports.json"
    rep.write_text(
        write_reports(
            [
                CheckReport("chi-occurrences", "pass", depth_exhausted=True),
                CheckReport("wi-bound", "pass", stats={"peak": 7, "ratio": 0.5, "by_level": [1, 2], "why": "x"}),
                CheckReport("no-return", "fail", counterexample={"start": "q"}),
            ]
        )
    )
    assert main(["report", "--reports", str(rep)]) == 2
    assert capsys.readouterr().out == (
        f"{'suite':24} {'status':8} notes\n"
        f"{'chi-occurrences':24} {'pass':8} depth-exhausted\n"
        f"{'wi-bound':24} {'pass':8} peak=7; ratio=0.5; why=x\n"
        f"{'no-return':24} {'fail':8} counterexample recorded\n"
    )


def test_verify_report_render(tmp_path):
    rep = tmp_path / "rep.json"
    code, _ = run_cli(["verify", "--suite", "periodic", "-o", str(rep)])
    assert code == 0
    code, out = run_cli(["report", "--reports", str(rep)])
    assert code == 0
    assert "periodic-distinctness" in out


def test_usage_error_exit_1():
    code, _ = run_cli(["build"])  # no machine selected
    assert code == 1
    # argparse-level usage errors also map to 1
    proc = run_child(["enumerate"])
    assert proc.returncode == 1
    # a child that cannot import the package also exits 1; the usage line
    # shows that the CLI itself ran
    assert proc.stderr.startswith(b"usage:")


def test_io_error_exit_3():
    proc = run_child(
        ["simulate", "--machine", "/nonexistent/x", "--word", "q", "--history", "h"]
    )
    assert proc.returncode == 3


@pytest.mark.parametrize(
    "args",
    [
        ["build", "--lr", "a", "-o", "{missing}/lr.txt"],
        ["simulate", "--machine", "{missing}/lr.txt", "--word", "q1 p1 q2", "--history", "z12"],
    ],
    ids=["output-in-missing-directory", "missing-machine-file"],
)
def test_io_error_is_one_line(capsys, tmp_path, args):
    missing = tmp_path / "missing"
    capsys.readouterr()
    code, out = run_cli([a.format(missing=missing) for a in args])
    err = capsys.readouterr().err
    assert (code, out) == (3, "")
    assert err.startswith("i/o error: ") and err.count("\n") == 1, err


def test_compile_round_trip(tmp_path):
    pfile = tmp_path / "mbar.txt"
    code, _ = run_cli(["compile", "--group", "Mbar", "--format", "plain", "-o", str(pfile)])
    assert code == 0
    code, out = run_cli(["export", "--presentation", str(pfile), "--format", "plain"])
    assert code == 0
    assert out == pfile.read_text()


def test_byte_identical_across_hash_seeds(tmp_path):
    """Determinism holds even under different interpreter hash seeds."""
    outs = []
    for seed in ("1", "2"):
        proc = run_child(
            ["verify", "--suite", "lr-bound", "--max-tape", "2"], PYTHONHASHSEED=seed
        )
        assert proc.returncode == 0
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_format_checks_survive_python_O(tmp_path):
    """``python -O`` strips ``assert``: the presentation parser and the
    lift shape check must not rest on one."""
    pfile = tmp_path / "mbar.txt"
    code, _ = run_cli(["compile", "--group", "Mbar", "-o", str(pfile)])
    assert code == 0
    proc = run_python(["-O", "-m", "smachine.cli", "export", "--presentation", str(pfile), "--format", "plain"])
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == pfile.read_bytes()
    bad = tmp_path / "bad.txt"
    bad.write_text(pfile.read_text().replace("GENERATORS", "GENS", 1))
    proc = run_python(["-O", "-m", "smachine.cli", "export", "--presentation", str(bad)])
    assert proc.returncode == 3
    assert proc.stderr == b"format error: expected 'GENERATORS', got 'GENS'\n"
    misshapen = (
        "from smachine.lr import build_lr\n"
        "from smachine.trapezia import PermissibleWord\n"
        "from smachine.words import MalformedWord\n"
        "w = build_lr(['a']).hardware.word(['q1', 'a', 'p1', 'q2'])\n"
        "try:\n"
        "    PermissibleWord(w, (1,), ())\n"
        "except MalformedWord:\n"
        "    print('rejected')\n"
    )
    proc = run_python(["-O", "-c", misshapen])
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == b"rejected\n"


@pytest.fixture(scope="module")
def gbar_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("gbar") / "gbar.txt"
    code, _ = run_cli(["compile", "--group", "Gbar", "--m", "1", "--L", "8", "--format", "plain", "-o", str(path)])
    assert code == 0
    return path.read_text()


def run_on_bad_file(capsys, tmp_path, text, args):
    """Run the CLI on ``text`` saved as a file; return (exit code, stderr)."""
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    capsys.readouterr()
    code, _ = run_cli([*args, str(bad)])
    return code, capsys.readouterr().err


@pytest.mark.parametrize(
    "edit",
    [
        lambda t: t.replace("param L 8\n", "param X\n", 1),
        lambda t: "".join(t.splitlines(keepends=True)[:3]),
        lambda t: t.replace("param N ", "param L ", 1),
    ],
    ids=["bad-key", "cut-after-3-lines", "N-relabelled-L"],
)
def test_malformed_presentation_is_a_format_error(capsys, tmp_path, gbar_file, edit):
    """Header lines are read by key: a wrong key, a short line or an
    early end of file is one ``format error`` line and the I/O exit."""
    code, err = run_on_bad_file(capsys, tmp_path, edit(gbar_file), ["export", "--presentation"])
    assert code == 3
    assert err.startswith("format error: ") and err.count("\n") == 1, err


@pytest.fixture(scope="module")
def lr_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("lr") / "lr.txt"
    assert run_cli(["build", "--lr", "a", "-o", str(path)])[0] == 0
    return path.read_text()


SIMULATE = ["simulate", "--word", "q1 p1 q2", "--history", "z12", "--machine"]
EXPORT = ["export", "--presentation"]
WRONG_PART = ("[q1 p1 -> q1 p2]", "[q2 p1 -> q2 p2]")


def add_generator(line):
    return lambda t: t.replace("GENERATORS\n", f"GENERATORS\n{line}\n", 1)


@pytest.mark.parametrize(
    "source, edit, args",
    [
        ("lr_file", lambda t: t.replace("part 1 : p1 p2\n", "part 1 :\n"), SIMULATE),
        ("lr_file", lambda t: t.replace("part 1 : ", "part x : "), SIMULATE),
        ("lr_file", lambda t: t.replace(*WRONG_PART), SIMULATE),
        ("lr_file", lambda t: t.replace("| dom 1 = a'\n", "| dom -1 = a'\n"), SIMULATE),
        ("lr_file", lambda t: t.replace("| dom 1 = a'\n", "| dom 1 = a' ; dom 1 = a'\n"), SIMULATE),
        ("lr_file", lambda t: t.replace("part 1 : ", "part 2 : "), SIMULATE),
        ("lr_file", lambda t: t.replace("[q1 p1 -> q1 p2]", "[q1 p1 -> q1]"), SIMULATE),
        ("lr_file", lambda t: t.replace("| dom 1 = a'\n", "| dim 1 = a'\n"), SIMULATE),
        ("lr_file", lambda t: t.replace("| dom 1 = a'\n", "| dom 0 = a ; dom 1 = a'\n"), SIMULATE),
        ("gbar_file", add_generator("q"), EXPORT),
        ("gbar_file", add_generator("a a^(x)"), EXPORT),
        ("gbar_file", add_generator("th foo_tX"), EXPORT),
        ("gbar_file", lambda t: t + "hub : no_such_letter\n", EXPORT),
        ("gbar_file", add_generator("a x'\na xp"), EXPORT),
    ],
    ids=[
        "part-without-letters",
        "part-index-not-int",
        "rule-letter-in-other-part",
        "dom-negative-sector",
        "dom-repeated-sector",
        "parts-out-of-order",
        "group-more-sources-than-targets",
        "dom-chunk-not-dom",
        "dom-on-merged-locked-sector",
        "bare-generator",
        "superscript-not-int",
        "theta-index-not-int",
        "undeclared-generator",
        "gap-name-collision",
    ],
)
def test_malformed_body_line_is_one_format_error(request, capsys, tmp_path, source, edit, args):
    """Past the headers, a line that does not parse or content that the
    machine rejects is one ``format error`` line and the I/O exit."""
    text = request.getfixturevalue(source)
    assert edit(text) != text
    code, err = run_on_bad_file(capsys, tmp_path, edit(text), args)
    assert code == 3
    assert err.startswith("format error: ") and err.count("\n") == 1, err


def test_rejected_machine_reports_the_validator(capsys, tmp_path, lr_file):
    code, err = run_on_bad_file(capsys, tmp_path, lr_file.replace(*WRONG_PART), SIMULATE)
    assert (code, err) == (3, "format error: rule z12 part 0: q2->q2 not in part\n")


@pytest.mark.parametrize(
    "args",
    [
        ["simulate", "--word", "q1 b p1 q2", "--history", "z12"],
        ["enumerate", "--word", "q1 b p1 q2"],
        ["simulate", "--word", "q1 a p1 q2", "--history", "nope"],
        ["simulate", "--word", "q1 a p1 q2", "--history", "z12"],
        ["simulate", "--word", "q2 a q2^-1", "--history", "z12"],
    ],
    ids=["simulate-bad-word", "enumerate-bad-word", "unknown-rule", "rule-not-applicable", "tape-past-the-word-end"],
)
def test_bad_argument_is_a_usage_error(capsys, tmp_path, lr_file, args):
    mfile = tmp_path / "lr.txt"
    mfile.write_text(lr_file)
    capsys.readouterr()
    code, out = run_cli([*args, "--machine", str(mfile)])
    err = capsys.readouterr().err
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "history, err",
    [
        ("z12", "rule z12 not applicable at step 0: letter a in sector 0 outside domain of z12"),
        ("z1_a z12 z12", "rule z12 not applicable at step 2: state letter p2 does not match rule z12"),
    ],
    ids=["letter-outside-domain", "state-letter-mismatch"],
)
def test_history_failure_names_step_and_reason(capsys, tmp_path, lr_file, history, err):
    """The line names the failing step and why the rule does not apply."""
    mfile = tmp_path / "lr.txt"
    mfile.write_text(lr_file)
    capsys.readouterr()
    code, out = run_cli(["simulate", "--word", "q1 a p1 q2", "--history", history, "--machine", str(mfile)])
    assert (code, out, capsys.readouterr().err) == (1, "", f"error: --history: {err}\n")


@pytest.mark.parametrize("text", ["not json\n", '{"m": "x"}\n'], ids=["not-json", "m-not-an-integer"])
def test_bad_manifest_is_a_format_error(capsys, tmp_path, text):
    code, err = run_on_bad_file(capsys, tmp_path, text, ["verify", "--suite", "periodic", "--manifest"])
    assert code == 3
    assert err.startswith("format error: ") and err.count("\n") == 1, err


def test_malformed_machine_is_a_format_error(capsys, tmp_path):
    mfile = tmp_path / "lr.txt"
    assert run_cli(["build", "--lr", "a", "-o", str(mfile)])[0] == 0
    text = mfile.read_text().replace(" tag=", " tga=", 1)
    code, err = run_on_bad_file(
        capsys, tmp_path, text, ["simulate", "--word", "q1 p1 q2", "--history", "z12", "--machine"]
    )
    assert code == 3
    assert err.startswith("format error: missing tag") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "args",
    [
        ["enumerate", "--word", "q1 a p1 q2", "--depth", "-1"],
        ["compile", "--group", "Gk:x"],
        ["build", "--lr-m", "a:x"],
        ["build", "--lr-m", "a:0"],
        ["build", "--lr", ","],
        ["build", "--rl", "a,a"],
        ["build", "--lr-m", ":2"],
        ["build", "--lr-m", "a,,b:1"],
        ["build", "--lr", "a,a'"],
        ["build", "--m3", "--m", "0"],
        ["verify", "--suite", "nope"],
        ["verify", "--suite", "wi-bound", "--depth", "-1"],
        ["verify", "--suite", "lr-bound", "--max-tape", "-1"],
        ["verify", "--suite", "periodic", "--jobs", "0"],
        ["verify", "--suite", "accepted-language", "--ks", "0,x"],
        ["verify", "--suite", "accepted-language", "--ks=0,-1"],
        ["compile", "--group", "nope"],
        ["build", "--main", "--L", "0"],
        ["compile", "--group", "G", "--L", "0"],
        ["verify", "--suite", "no-return", "--L", "0"],
        ["disk", "--L", "0"],
        ["disk", "--k", "-1"],
        ["compile", "--group", "Gk:-1"],
        ["build", "--lr", "a", "--rl", "b"],
        ["build", "--main", "--lr", "a"],
        ["disk", "--hub", "accept", "--k", "3"],
        ["disk", "--hub", "start", "--k", "0"],
        ["build", "--lr", "a", "--toy-even"],
        ["build", "--rl", "a", "--toy-even"],
        ["build", "--lr-m", "a:1", "--toy-even"],
        ["build", "--lr", "q1"],
        ["build", "--lr", "p1"],
        ["build", "--rl", "r2"],
        ["build", "--lr", "a b"],
        ["build", "--lr", "a]"],
        ["build", "--lr", "a[b"],
        ["build", "--lr", "a|b"],
        ["build", "--lr-m", "a->b:1"],
        ["build", "--lr", "a^-1"],
        ["verify", "--suite", "periodic,periodic"],
        ["build", "--lr", ";"],
    ],
    ids=[
        "negative-depth",
        "group-k-not-int",
        "lr-m-not-int",
        "lr-m-zero",
        "lr-empty-letters",
        "rl-repeated-letter",
        "lr-m-no-letter",
        "lr-m-empty-letter",
        "lr-primed-copy",
        "m3-m-zero",
        "unknown-suite",
        "verify-negative-depth",
        "verify-negative-max-tape",
        "verify-no-jobs",
        "verify-ks-not-int",
        "verify-negative-ks",
        "unknown-group",
        "build-L-too-small",
        "compile-L-too-small",
        "verify-L-too-small",
        "disk-L-too-small",
        "disk-negative-k",
        "compile-negative-k",
        "build-two-machines",
        "build-main-and-lr",
        "disk-hub-and-k",
        "disk-hub-and-default-k",
        "lr-and-toy-even",
        "rl-and-toy-even",
        "lr-m-and-toy-even",
        "lr-state-letter",
        "lr-phase-letter",
        "rl-phase-letter",
        "lr-letter-with-space",
        "lr-letter-with-bracket",
        "lr-letter-with-open-bracket",
        "lr-letter-with-bar",
        "lr-m-letter-with-arrow",
        "lr-inverse-letter",
        "suite-named-twice",
        "lr-domain-separator",
    ],
)
def test_bad_parameter_is_a_usage_error(capsys, tmp_path, lr_file, args):
    """A parameter that argparse or a builder rejects exits 1 with a
    closing ``error:`` line, after argparse's usage line if it printed one."""
    if args[0] == "enumerate":
        mfile = tmp_path / "lr.txt"
        mfile.write_text(lr_file)
        args = [*args, "--machine", str(mfile)]
    capsys.readouterr()
    code, out = run_cli(args)
    err = capsys.readouterr().err
    assert (code, out) == (1, "")
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith("error: "), err


@pytest.mark.parametrize(
    "suite, err",
    [("periodic,periodic", "suite 'periodic' named twice"), ("nope", "unknown suite 'nope'")],
    ids=["named-twice", "unknown"],
)
def test_rejected_suite_names_the_reason(capsys, tmp_path, suite, err):
    """``--suite`` is read once, by ``run_suites``: the line says why, and
    no report file is written."""
    rep = tmp_path / "reports.json"
    capsys.readouterr()
    code, out = run_cli(["verify", "--suite", suite, "-o", str(rep)])
    assert (code, out, capsys.readouterr().err.splitlines()[-1]) == (1, "", f"error: {err}")
    assert not rep.exists()


@pytest.mark.parametrize(
    "args",
    [["--jobs", "0"], ["--budget", "-1"], ["--m", "0"]],
    ids=["no-jobs", "negative-budget", "m-zero"],
)
def test_run_verification_usage_errors_exit_1(tmp_path, args):
    """``scripts/run_verification.py`` checks its arguments as ``smachine
    verify`` does: one closing ``error:`` line, exit 1 (not the 2 of a
    failed suite), and no output directory."""
    script = Path(__file__).resolve().parent.parent / "scripts" / "run_verification.py"
    out = tmp_path / "out"
    proc = run_python([str(script), *args, "--out", str(out)])
    err = proc.stderr.decode()
    assert (proc.returncode, proc.stdout) == (1, b""), err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith("error: "), err
    assert not out.exists()


@pytest.fixture(scope="module")
def reports_text(tmp_path_factory):
    path = tmp_path_factory.mktemp("reports") / "reports.json"
    assert run_cli(["verify", "--suite", "periodic", "-o", str(path)])[0] == 0
    return path.read_text()


@pytest.mark.parametrize(
    "source, edit",
    [
        ("lr_file", lambda t: t),
        ("reports_text", lambda t: t[: len(t) // 2]),
        ("reports_text", lambda t: t.replace('"stats": {}', '"stats": [1]', 1)),
        ("reports_text", lambda t: t.replace('"status": "pass"', '"status": null', 1)),
    ],
    ids=["machine-file", "truncated-reports", "stats-not-an-object", "status-not-a-string"],
)
def test_unreadable_reports_are_a_format_error(request, capsys, tmp_path, source, edit):
    """``report`` reads its file as concatenated JSON objects: anything else
    is one ``format error`` line and the I/O exit."""
    code, err = run_on_bad_file(capsys, tmp_path, edit(request.getfixturevalue(source)), ["report", "--reports"])
    assert code == 3
    assert err.startswith("format error: reports: ") and err.count("\n") == 1, err
