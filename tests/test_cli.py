"""Command-line interface: generation round trips, runs, reports, exit codes."""

from __future__ import annotations

import json
from pathlib import Path

from ascentlab.cli import (
    EXIT_BUDGET,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_TIE,
    EXIT_VERIFY_FAILED,
    main,
)
from ascentlab.counting import SymbolCountingLandscape, make_counting_boolean_instance
from ascentlab.landscapes import make_pairs_instance
from ascentlab.vcsp import load_instance

DATA = Path(__file__).parent / "data"


def test_gen_round_trip_pairs(tmp_path, capsys):
    out = tmp_path / "pairs.json"
    assert main(["gen", "pairs", "--n", "6", "--alpha", "4", "-o", str(out)]) == EXIT_OK
    assert "variables=6" in capsys.readouterr().out
    instance = load_instance(out)
    assert instance == make_pairs_instance(6, 4)
    # a generated instance evaluates identically after the round trip
    assert instance.evaluate((1, 1, 0, 0, 1, 1)) == 9


def test_gen_counting_boolean_shape(tmp_path, capsys):
    out = tmp_path / "cb.json"
    assert main(["gen", "counting-boolean", "--n", "3", "-o", str(out)]) == EXIT_OK
    text = capsys.readouterr().out
    assert "variables=12" in text and "arities=[8]" in text
    assert load_instance(out) == make_counting_boolean_instance(3)


def test_gen_invalid_params(tmp_path, capsys):
    assert main(["gen", "pairs", "--n", "3", "--alpha", "2"]) == EXIT_INVALID
    assert main(["gen", "counting-symbol", "--n", "1"]) == EXIT_INVALID
    capsys.readouterr()


def test_run_winding_summary(tmp_path, capsys):
    inst = tmp_path / "w.json"
    main(["gen", "winding", "--n", "10", "-o", str(inst)])
    capsys.readouterr()
    code = main(["run", str(inst), "--max-steps", "4096"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "steps=2046" in out and "terminal=local-optimum" in out


def test_run_golden_trace_file_matches(tmp_path, capsys):
    inst = tmp_path / "cs7.json"
    main(["gen", "counting-symbol", "--n", "7", "-o", str(inst)])
    trace = tmp_path / "trace.tsv"
    code = main([
        "run", str(inst), "--start", "0 0 0 1 1 1 1",
        "--max-steps", "20", "--trace-out", str(trace),
    ])
    capsys.readouterr()
    assert code == EXIT_BUDGET  # the segment's endpoint is not a local optimum
    assert trace.read_bytes() == (DATA / "golden_trace_n7.tsv").read_bytes()


def test_run_edited_instance_uses_its_own_tables(tmp_path, capsys):
    # corrupting f(i1C, C) in the file changes the run: the path stalls early
    inst = tmp_path / "cs.json"
    main(["gen", "counting-symbol", "--n", "3", "-o", str(inst)])
    capsys.readouterr()
    obj = json.loads(inst.read_text())
    from ascentlab.symbols import SYMBOLS

    row, col = SYMBOLS.index("i1C"), SYMBOLS.index("C")
    for c in obj["constraints"][:-1]:
        c["values"][row * 10 + col] = 0
    inst.write_text(json.dumps(obj))
    assert main(["run", str(inst), "--max-steps", "100"]) == EXIT_OK
    out = capsys.readouterr().out
    healthy = SymbolCountingLandscape(3)
    from ascentlab.search import steepest_ascent

    healthy_steps = steepest_ascent(healthy, healthy.zero_state(), max_steps=100).num_steps
    steps = int(out.split("steps=")[1].split()[0])
    assert steps < healthy_steps


def test_run_refuses_an_instance_whose_tables_differ(tmp_path, capsys):
    # one pair table and one weight edited: the file's own tables score
    # <0 C 0 0 0> as 6, which no symbol landscape with a single pair table
    # reproduces, so the run is refused instead of printing fitness 592
    inst = tmp_path / "cs5.json"
    main(["gen", "counting-symbol", "--n", "5", "-o", str(inst)])
    capsys.readouterr()
    obj = json.loads(inst.read_text())
    from ascentlab.symbols import SYMBOLS, parse_symbol_state

    obj["constraints"][2]["values"][SYMBOLS.index("C") * 10 + SYMBOLS.index("0")] = 0
    obj["constraints"][3]["weight"] = 1
    inst.write_text(json.dumps(obj))
    start = parse_symbol_state("0 C 0 0 0")
    own = load_instance(inst).evaluate(SymbolCountingLandscape(5).to_assignment(start))
    assert own == 6
    code = main(["run", str(inst), "--start", "0 C 0 0 0", "--max-steps", "0"])
    captured = capsys.readouterr()
    assert code == EXIT_INVALID
    assert captured.out == "" and "differs" in captured.err


def test_run_refuses_a_counting_file_without_the_pair_layout(tmp_path, capsys):
    inst = tmp_path / "cs3.json"
    main(["gen", "counting-symbol", "--n", "3", "-o", str(inst)])
    capsys.readouterr()
    obj = json.loads(inst.read_text())
    obj["constraints"] = obj["constraints"][1:]
    inst.write_text(json.dumps(obj))
    assert main(["run", str(inst), "--max-steps", "10"]) == EXIT_INVALID
    assert "counting-symbol" in capsys.readouterr().err


def test_run_tie_exit_code(tmp_path, capsys):
    # from (0,1,0,1) both mismatched pairs offer the same +alpha repair
    inst = tmp_path / "p.json"
    main(["gen", "pairs", "--n", "4", "--alpha", "3", "-o", str(inst)])
    capsys.readouterr()
    code = main(["run", str(inst), "--start", "0101", "--max-steps", "5"])
    capsys.readouterr()
    assert code == EXIT_TIE
    code = main(["run", str(inst), "--start", "0101", "--max-steps", "5",
                 "--policy", "lowest-index"])
    out = capsys.readouterr().out
    assert code == EXIT_OK and "terminal=local-optimum" in out


def test_budget_exit_code(tmp_path, capsys):
    inst = tmp_path / "w.json"
    main(["gen", "winding", "--n", "6", "-o", str(inst)])
    code = main(["run", str(inst), "--max-steps", "3"])
    capsys.readouterr()
    assert code == EXIT_BUDGET


def test_run_rejects_non_bit_winding_start(tmp_path, capsys):
    inst = tmp_path / "w.json"
    main(["gen", "winding", "--n", "3", "-o", str(inst)])
    capsys.readouterr()
    code = main(["run", str(inst), "--start", "200000", "--max-steps", "10"])
    captured = capsys.readouterr()
    assert code == EXIT_INVALID
    assert "bits" in captured.err and captured.out == ""


def test_verify_exit_codes_and_json(capsys):
    assert main(["verify", "arithmetic", "--format", "json"]) == EXIT_OK
    obj = json.loads(capsys.readouterr().out)
    assert obj["passed"] is True
    assert main(["verify", "pathwidth", "--n", "5"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "width 7" in out
    assert main(["verify", "lockstep", "--n", "6", "--budget", "4096"]) == EXIT_OK
    capsys.readouterr()


def test_verify_cpp(capsys):
    assert main(["verify", "cpp", "--n", "3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "result: PASS" in out


def test_analyze_scaling_table(tmp_path, capsys):
    out = tmp_path / "scaling.tsv"
    assert main(["analyze", "scaling", "--max-n", "6", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n\tvariables\tsteps\tclosed_form"
    for line in lines[1:]:
        n, nvars, steps, closed = (int(x) for x in line.split("\t"))
        assert nvars == 2 * n
        assert steps == closed == 2 ** (n + 1) - 2


def test_analyze_census(capsys):
    assert main(["analyze", "census", "--kind", "pairs", "--n", "4",
                 "--alpha", "2", "--max-states", "100"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "local_maxima=4" in out and "ratio=2" in out


def test_analyze_gradient_origin(capsys):
    assert main(["analyze", "gradient", "--n", "3", "--at", "origin"]) == EXIT_OK
    out = capsys.readouterr().out.strip().splitlines()
    assert [int(r.split("\t")[1]) for r in out[1:]] == [2, 1, 1, 1, 1, 1]


def test_analyze_degree_bounds(capsys):
    assert main(["analyze", "degree-bounds", "--n", "8"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "# aggregate" in out and "floor 28" in out


def test_outputs_are_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["gen", "counting-boolean", "--n", "4", "-o", str(a)])
    main(["gen", "counting-boolean", "--n", "4", "-o", str(b)])
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    ta, tb = tmp_path / "ta.tsv", tmp_path / "tb.tsv"
    inst = tmp_path / "cs.json"
    main(["gen", "counting-symbol", "--n", "4", "-o", str(inst)])
    for t in (ta, tb):
        main(["run", str(inst), "--engine", "first-improvement", "--seed", "42",
              "--max-steps", "200", "--trace-out", str(t)])
    capsys.readouterr()
    assert ta.read_bytes() == tb.read_bytes()


def test_verify_failure_exit_code(tmp_path, capsys, monkeypatch):
    # a corrupted cost table must drive the cpp suite to a failing exit
    import ascentlab.cli as cli_mod
    import ascentlab.rules as rules_mod
    from ascentlab.counting import F_NONZERO

    corrupted = dict(F_NONZERO)
    corrupted[("i1C", "C")] = 0

    real = rules_mod.verify_cpp_closure

    def patched(n, landscape=None, **kw):
        return real(n, landscape=SymbolCountingLandscape(n, f_table=corrupted), **kw)

    monkeypatch.setattr(cli_mod.rules, "verify_cpp_closure", patched)
    assert main(["verify", "cpp", "--n", "4"]) == EXIT_VERIFY_FAILED
    capsys.readouterr()
