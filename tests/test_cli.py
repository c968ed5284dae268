"""Command-line interface: generation round trips, runs, reports, exit codes."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from ascentlab import analysis, cli, counting, rules
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
from ascentlab.vcsp import instance_to_obj
from ascentlab.winding import WindingLandscape

from conftest import dump_instance, load_instance

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "cli_golden"


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


@pytest.mark.parametrize("argv, instance", [
    (["pairs", "--n", "6", "--alpha", "4"], make_pairs_instance(6, 4)),
    (["counting-boolean", "--n", "3"], make_counting_boolean_instance(3)),
], ids=["pairs", "counting-boolean"])
def test_the_dump_helper_writes_the_bytes_gen_writes(argv, instance, tmp_path, capsys):
    out, dumped = tmp_path / "gen.json", tmp_path / "dumped.json"
    assert main(["gen", *argv, "-o", str(out)]) == EXIT_OK
    capsys.readouterr()
    dump_instance(instance, dumped)
    assert dumped.read_bytes() == out.read_bytes()


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


def test_run_scores_an_instance_whose_tables_differ_by_its_own_tables(tmp_path, capsys):
    # one pair table and one weight edited: the file's own tables score
    # <0 C 0 0 0> as 6, where a single pair table copied to every pair and
    # the generator's weights would give 592
    inst = tmp_path / "cs5.json"
    main(["gen", "counting-symbol", "--n", "5", "-o", str(inst)])
    capsys.readouterr()
    obj = json.loads(inst.read_text())
    from ascentlab.symbols import SYMBOLS

    obj["constraints"][2]["values"][SYMBOLS.index("C") * 10 + SYMBOLS.index("0")] = 0
    obj["constraints"][3]["weight"] = 1
    inst.write_text(json.dumps(obj))
    start = SymbolCountingLandscape(5).parse_state("0 C 0 0 0")
    own = load_instance(inst).evaluate(SymbolCountingLandscape(5).to_assignment(start))
    assert own == 6
    assert SymbolCountingLandscape(5).evaluate(start) == 592
    code = main(["run", str(inst), "--start", "0 C 0 0 0", "--max-steps", "0"])
    captured = capsys.readouterr()
    assert code == EXIT_BUDGET
    assert captured.err == ""
    assert "final_fitness=6 " in captured.out


def test_run_scores_a_counting_file_without_the_pair_layout_by_its_own_tables(
        tmp_path, capsys):
    inst = tmp_path / "cs3.json"
    main(["gen", "counting-symbol", "--n", "3", "-o", str(inst)])
    capsys.readouterr()
    obj = json.loads(inst.read_text())
    obj["constraints"] = obj["constraints"][1:]
    inst.write_text(json.dumps(obj))
    assert main(["run", str(inst), "--max-steps", "10"]) == EXIT_OK
    out = capsys.readouterr().out
    final = SymbolCountingLandscape(3).parse_state(out.split("final_state=")[1])
    fitness = int(out.split("final_fitness=")[1].split()[0])
    own = load_instance(inst).evaluate(SymbolCountingLandscape(3).to_assignment(final))
    assert fitness == own


def test_run_refuses_a_counting_file_with_a_domain_of_nine(tmp_path, capsys):
    # a valid instance (its tables shrunk to match), but X_1 has no "iCX"
    inst = tmp_path / "cs3.json"
    main(["gen", "counting-symbol", "--n", "3", "-o", str(inst)])
    capsys.readouterr()
    obj = json.loads(inst.read_text())
    obj["domains"][0] = 9
    for c in obj["constraints"]:
        if c["scope"][-1] == 0:
            c["values"] = [v for k, v in enumerate(c["values"]) if k % 10 != 9]
    inst.write_text(json.dumps(obj))
    assert load_instance(inst).domains == (9, 10, 10)
    assert main(["run", str(inst), "--max-steps", "10"]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == "" and "domain 10 on every variable" in captured.err


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


def test_run_tie_names_the_state_as_the_trace_does(tmp_path, capsys):
    # the validator accepts this schedule, yet s-_4 = 22 tops the origin gradient twice
    inst = tmp_path / "w.json"
    main(["gen", "winding", "--n", "4", "--s-plus", "12,24,27,36",
          "--s-minus", "3,-15,8,22", "-o", str(inst)])
    capsys.readouterr()
    code = main(["run", str(inst), "--max-steps", "100"])
    captured = capsys.readouterr()
    assert code == EXIT_TIE and captured.out == ""
    assert captured.err == (
        "tie: steepest-move tie at 00000000: moves [(6, 1), (7, 1)] all improve by 22\n")


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


@pytest.mark.parametrize("start, message", [
    ("0000001", "winding states have even length"),  # odd length
    ("00000000", "state has 8 bits, expected 6"),     # wrong length
    ("000300", "winding states hold only bits 0 and 1, got (0, 0, 0, 3, 0, 0)"),
])
def test_run_refuses_a_bad_winding_start_with_exit_2(tmp_path, capsys, start, message):
    inst = tmp_path / "w.json"
    main(["gen", "winding", "--n", "3", "-o", str(inst)])
    capsys.readouterr()
    for engine in (["--engine", "steepest"], ["--engine", "first-improvement", "--seed", "1"]):
        code = main(["run", str(inst), "--start", start, "--max-steps", "10", *engine])
        captured = capsys.readouterr()
        assert code == EXIT_INVALID == 2
        assert captured.err == f"error: {message}\n" and captured.out == ""


def test_run_refuses_a_negative_seed_with_exit_2(tmp_path, capsys):
    # random.Random would seed -3 as 3 and print seed 3's trace
    inst = tmp_path / "cs.json"
    main(["gen", "counting-symbol", "--n", "4", "-o", str(inst)])
    capsys.readouterr()
    code = main(["run", str(inst), "--engine", "first-improvement", "--seed", "-3",
                 "--max-steps", "100"])
    captured = capsys.readouterr()
    assert code == EXIT_INVALID
    assert captured.err == "error: seed must be a non-negative int, not -3\n"
    assert captured.out == ""


def test_run_refuses_a_negative_budget_with_exit_2(tmp_path, capsys):
    inst = tmp_path / "cs.json"
    main(["gen", "counting-symbol", "--n", "4", "-o", str(inst)])
    capsys.readouterr()
    for engine in (["--engine", "steepest"], ["--engine", "first-improvement", "--seed", "1"]):
        code = main(["run", str(inst), "--max-steps", "-1", *engine])
        captured = capsys.readouterr()
        assert code == EXIT_INVALID
        assert captured.err == "error: max_steps must be a non-negative int, not -1\n"
        assert captured.out == ""


def test_verify_exit_codes_and_json(capsys):
    assert main(["verify", "arithmetic", "--format", "json"]) == EXIT_OK
    obj = json.loads(capsys.readouterr().out)
    assert obj["passed"] is True
    assert main(["verify", "pathwidth", "--n", "5"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "width 7" in out
    assert main(["verify", "pathwidth", "--n", "3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "N=3" in out and "N=4" not in out and "result: PASS" in out
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


def test_run_refuses_documents_whose_numbers_are_not_exact_integers(tmp_path, capsys):
    winding = {"format": "winding-landscape/v1", "n": 2, "s_plus": [2, 3], "s_minus": [1, 1]}
    pairs = instance_to_obj(make_pairs_instance(4, 3))
    bad = [
        dict(winding, n=2.9, s_plus=[2.7, "3"], s_minus=[True, 1.5]),
        dict(winding, n=2.0), dict(winding, n=True), dict(winding, s_plus=[2, 3.0]),
        dict(winding, s_plus=[2, "3"]), dict(winding, s_minus=[True, 1]),
    ]
    for path, value in ((("domains", 0), 2.9), (("constraints", 0, "weight"), 1.7),
                        (("constraints", 0, "weight"), True), (("constraints", 1, "values", 3), "3"),
                        (("constraints", 1, "scope", 0), 2.0)):
        obj = json.loads(json.dumps(pairs))
        *parents, last = path
        target = obj
        for key in parents:
            target = target[key]
        target[last] = value
        bad.append(obj)
    for good in (winding, pairs):
        inst = tmp_path / "good.json"
        inst.write_text(json.dumps(good))
        assert main(["run", str(inst), "--max-steps", "10"]) == EXIT_OK
    capsys.readouterr()
    for k, obj in enumerate(bad):
        inst = tmp_path / f"bad{k}.json"
        inst.write_text(json.dumps(obj))
        assert main(["run", str(inst), "--max-steps", "10"]) == EXIT_INVALID, obj
        captured = capsys.readouterr()
        assert captured.out == "" and "exact integer" in captured.err, obj


def test_run_refuses_malformed_documents_naming_the_field(tmp_path, capsys):
    winding = {"format": "winding-landscape/v1", "n": 2, "s_plus": [2, 3], "s_minus": [1, 1]}
    pairs = instance_to_obj(make_pairs_instance(4, 3))
    no_values = json.loads(json.dumps(pairs))
    del no_values["constraints"][1]["values"]
    no_weight = json.loads(json.dumps(pairs))
    del no_weight["constraints"][0]["weight"]
    no_s_plus = dict(winding)
    del no_s_plus["s_plus"]
    bad = [
        (dict(winding, s_plus=5), "s_plus"),
        (no_s_plus, "s_plus"),
        (dict(winding, s_minus="11"), "s_minus"),
        ({k: v for k, v in winding.items() if k != "n"}, "n must"),
        (no_values, "constraint 1 values"),
        (no_weight, "constraint 0 must be an object with a weight"),
        (dict(pairs, constraints={}), "constraints"),
        (dict(pairs, constraints=[5]), "constraint 0"),
        (dict(pairs, domains=4), "domains"),
        (dict(pairs, metadata=[1]), "metadata"),
        (dict(winding, format="nope"), "error: unrecognized document format 'nope'\n"),
        ([winding], "JSON list"),
        ("winding", "JSON str"),
    ]
    for k, (obj, named) in enumerate(bad):
        inst = tmp_path / f"bad{k}.json"
        inst.write_text(json.dumps(obj))
        assert main(["run", str(inst), "--max-steps", "10"]) == EXIT_INVALID, obj
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: "), obj
        assert named in captured.err, (obj, captured.err)
    missing = tmp_path / "missing.json"
    for argv in (["run", str(missing), "--max-steps", "10"],
                 ["analyze", "census", "--instance", str(tmp_path)]):
        assert main(argv) == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: cannot read ")


def test_gen_refuses_an_output_it_cannot_write(tmp_path, capsys):
    # the last name passes the check made before the work, and open refuses it
    for out, reason in ((tmp_path / "missing" / "pairs.json", "no directory"),
                        (tmp_path, "it is a directory"),
                        (tmp_path / ("x" * 300), "too long")):
        assert main(["gen", "pairs", "--n", "6", "--alpha", "4", "-o", str(out)]) \
            == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: cannot write ")
        assert reason in captured.err
    assert not (tmp_path / "missing").exists()


def test_run_refuses_a_trace_out_in_a_missing_directory_before_the_ascent(tmp_path, capsys):
    inst = tmp_path / "w.json"
    main(["gen", "winding", "--n", "6", "-o", str(inst)])
    capsys.readouterr()
    trace = tmp_path / "missing" / "trace.tsv"
    code = main(["run", str(inst), "--max-steps", "200", "--trace-out", str(trace)])
    captured = capsys.readouterr()
    assert code == EXIT_INVALID
    # no summary line: the ascent never ran
    assert captured.out == "" and captured.err.startswith("error: cannot write ")


def test_analyze_refuses_an_out_in_a_missing_directory(tmp_path, capsys):
    out = tmp_path / "missing" / "scaling.tsv"
    assert main(["analyze", "scaling", "--max-n", "3", "--out", str(out)]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: cannot write ")


@pytest.mark.parametrize("argv", [
    ["analyze", "gradient"],
    ["analyze", "degree-bounds"],
    ["analyze", "census", "--kind", "pairs"],
    ["analyze", "census", "--kind", "counting-symbol"],
])
def test_analyze_refuses_a_missing_n(argv, capsys):
    assert main(argv) == EXIT_INVALID
    captured = capsys.readouterr()
    # a census of an --instance reads no --n, so only --kind requires it
    message = ("census needs --n" if argv[1] == "census"
               else "the following arguments are required: --n")
    assert captured.out == "" and captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv, reason", [
    (["verify", "cpp", "--n", "0"], "at least 2 symbol variables"),
    (["verify", "lockstep", "--n", "0"], "at least 2 symbol variables"),
    (["analyze", "census", "--kind", "pairs", "--n", "4", "--alpha", "0"], "alpha"),
    # with fewer than 2 levels these would check nothing and pass
    (["verify", "gradient", "--n", "1"], "verify gradient needs --n >= 2"),
    (["verify", "all", "--n", "1"], "verify all needs --n >= 2"),
    # the width rows start at N = 3
    *[(["verify", "pathwidth", "--n", n], "verify pathwidth needs --n >= 3")
      for n in ("0", "1", "2")],
])
def test_a_given_value_is_never_swapped_for_the_default(argv, reason, capsys):
    assert main(argv) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == "" and reason in captured.err


def test_run_reads_one_value_per_token_when_a_domain_is_above_10(tmp_path, capsys):
    inst = tmp_path / "wide.json"
    inst.write_text(json.dumps({
        "format": "vcsp-instance/v1", "domains": [12, 12, 12],
        "constraints": [{"scope": [0], "weight": 1, "values": list(range(12))}]}))
    assert main(["run", str(inst), "--start", "10 11 3", "--max-steps", "0"]) == EXIT_BUDGET
    captured = capsys.readouterr()
    assert "final_fitness=10 " in captured.out and captured.err == ""
    # two tokens are two values, not the three digits they hold
    assert main(["run", str(inst), "--start", "11 0", "--max-steps", "0"]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        "error: assignment has 2 values, instance has 3 variables\n")


def test_a_state_printed_with_a_domain_above_10_reads_back_through_start(tmp_path, capsys):
    inst = tmp_path / "wide.json"
    inst.write_text(json.dumps({
        "format": "vcsp-instance/v1", "domains": [12, 12, 12],
        "constraints": [{"scope": [0], "weight": 1, "values": list(range(12))}]}))
    trace_out = tmp_path / "trace.tsv"
    assert main(["run", str(inst), "--start", "10 11 3", "--max-steps", "5",
                 "--trace-out", str(trace_out)]) == EXIT_OK
    out = capsys.readouterr().out
    assert out == "steps=1 final_fitness=11 terminal=local-optimum final_state=11 11 3\n"
    rows = trace_out.read_text().splitlines()
    assert [row.split("\t")[-1] for row in rows[1:3]] == ["10 11 3", "11 11 3"]
    printed = out.split("final_state=")[1].strip()
    assert main(["run", str(inst), "--start", printed, "--max-steps", "5"]) == EXIT_OK
    assert capsys.readouterr().out == (
        "steps=0 final_fitness=11 terminal=local-optimum final_state=11 11 3\n")
    # a tie names the state in the same form
    inst.write_text(json.dumps({
        "format": "vcsp-instance/v1", "domains": [12, 12],
        "constraints": [{"scope": [0], "weight": 1, "values": [0] * 10 + [5, 5]}]}))
    assert main(["run", str(inst), "--start", "0 11", "--max-steps", "5"]) == EXIT_TIE
    assert capsys.readouterr().err == (
        "tie: steepest-move tie at 0 11: moves [(0, 10), (0, 11)] all improve by 5\n")


def test_run_reads_one_value_per_digit_when_every_domain_is_at_most_10(tmp_path, capsys):
    inst = tmp_path / "ten.json"
    inst.write_text(json.dumps({
        "format": "vcsp-instance/v1", "domains": [10, 10, 10],
        "constraints": [{"scope": [0], "weight": 1, "values": list(range(10))}]}))
    for start in ("11 0", "110", "1,1,0"):
        assert main(["run", str(inst), "--start", start, "--max-steps", "0"]) == EXIT_BUDGET
        captured = capsys.readouterr()
        assert "final_fitness=1 " in captured.out and "final_state=110" in captured.out
        assert captured.err == ""
    assert main(["run", str(inst), "--start", "10 11 3", "--max-steps", "0"]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        "error: assignment has 5 values, instance has 3 variables\n")


def test_run_refuses_an_empty_start(tmp_path, capsys):
    inst = tmp_path / "pairs.json"
    main(["gen", "pairs", "--n", "4", "--alpha", "2", "-o", str(inst)])
    capsys.readouterr()
    for start in ("", " , "):
        assert main(["run", str(inst), "--start", start, "--max-steps", "5"]) == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            "error: assignment has 0 values, instance has 4 variables\n")


# each command below was once accepted with an option it never reads; the
# test adds the command's output option and checks that no file is written
@pytest.mark.parametrize("argv", [
    ["gen", "pairs", "--n", "6", "--alpha", "4", "--schedule", "root2path"],
    ["gen", "counting-symbol", "--n", "3", "--alpha", "5"],
    ["gen", "counting-boolean", "--n", "2", "--s-plus", "1,2"],
    ["gen", "winding", "--n", "3", "--alpha", "2"],
    ["gen", "winding", "--n", "3", "--schedule", "root2path",
     "--s-plus", "2,3,5", "--s-minus", "1,1,1"],
    ["verify", "arithmetic", "--n", "99", "--budget", "-4"],
    ["verify", "cpp", "--n", "3", "--budget", "10"],
    ["verify", "gradient", "--budget", "10"],
    ["verify", "pathwidth", "--n", "4", "--budget", "10"],
    ["verify", "all", "--budget", "10"],
    ["analyze", "scaling", "--max-n", "3", "--n", "3"],
    ["analyze", "scaling", "--max-n", "3", "--s-plus", "2,3,5", "--s-minus", "1,1,1"],
    ["analyze", "gradient", "--n", "3", "--kind", "pairs"],
    ["analyze", "degree-bounds", "--n", "3", "--at", "origin"],
    ["analyze", "census", "--kind", "pairs", "--n", "4", "--schedule", "root2path"],
    ["analyze", "census", "--instance", "{data}/p4.json", "--n", "4"],
    ["analyze", "census", "--instance", "{data}/p4.json", "--alpha", "3"],
    ["analyze", "census", "--kind", "counting-symbol", "--n", "3", "--alpha", "3"],
    ["analyze", "census", "--kind", "pairs", "--instance", "{data}/p4.json", "--n", "4"],
    ["run", "{data}/cs5.json", "--max-steps", "5", "--engine", "steepest", "--seed", "3"],
    ["run", "{data}/cs5.json", "--max-steps", "5", "--engine", "first-improvement",
     "--seed", "1", "--policy", "lowest-index"],
], ids=" ".join)
def test_an_option_the_command_does_not_read_is_refused(argv, tmp_path, capsys):
    out = tmp_path / "out"
    flag = {"gen": "-o", "run": "--trace-out", "analyze": "--out"}.get(argv[0])
    argv = [arg.replace("{data}", str(GOLDEN)) for arg in argv]
    assert main(argv + ([flag, str(out)] if flag else [])) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["gen", "pairs", "--n", "x"], "argument --n: invalid int value: 'x'"),
    (["gen", "pairs", "--n", "4"], "the following arguments are required: --alpha"),
    # an option goes after its subcommand; before it, it is named and refused
    (["gen", "--n", "4", "pairs"], "option --n goes after the subcommand"),
    (["verify", "lockstep", "--n", "4", "--budget", "-5"],
     "budget must be a non-negative int, not -5"),
    (["analyze", "scaling", "--max-n", "0"], "scaling needs --max-n >= 1"),
    (["analyze", "census"], "one of the arguments --kind --instance is required"),
    (["run", "{data}/cs5.json", "--max-steps", "5", "--engine", "first-improvement"],
     "first-improvement needs --seed"),
    (["verify", "--n", "4", "cpp"], "option --n goes after the subcommand of ascentlab verify"),
    (["analyze", "--out", "x.tsv", "scaling"],
     "option --out goes after the subcommand of ascentlab analyze"),
    (["verify", "cpp", "--n", "9"], "state space has 1000000000 states, over the cap 100000000"),
    (["gen", "winding", "--n", "3", "--s-plus", "2,3,5"],
     "--s-plus and --s-minus must be given together"),
    (["analyze", "gradient", "--n", "3", "--at", "peak:0"], "k must be in 1..3"),
    (["verify", "all", "--n", "30"],
     "the lockstep at N=30 takes 3758096260 steps, over the cap 8000000"),
    (["analyze", "census", "--kind", "pairs", "--n", "4", "--max-states", "0"],
     "the census cap 0 is below 1"),
])
def test_a_refusal_is_one_error_line(argv, message, capsys):
    argv = [arg.replace("{data}", str(GOLDEN)) for arg in argv]
    assert main(argv) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1 and message in captured.err


@pytest.mark.parametrize("suite", ["lockstep", "all"])
def test_verify_runs_the_largest_lockstep_under_its_cap_and_refuses_the_next(
        suite, monkeypatch, capsys):
    monkeypatch.setattr(rules, "LOCKSTEP_MAX_STEPS", rules.lockstep_steps(5))
    assert main(["verify", suite, "--n", "5"]) == EXIT_OK
    assert capsys.readouterr().out.endswith("result: PASS\n")
    assert main(["verify", suite, "--n", "6"]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the lockstep at N=6 takes 196 steps, over the cap 88\n"


@pytest.mark.parametrize("off", [1, -1])
def test_verify_lockstep_fails_when_it_reaches_01_off_r_of_n(off, monkeypatch, capsys):
    steps = rules.lockstep_steps
    monkeypatch.setattr(rules, "lockstep_steps", lambda n: steps(n) + off)
    assert main(["verify", "lockstep", "--n", "6"]) == EXIT_VERIFY_FAILED
    assert capsys.readouterr().out.splitlines()[1:] == [
        f"[FAIL] lockstep: 01^(N-1) reached at step 196, not at R(N) = {196 + off}",
        "result: FAIL"]


def test_census_runs_the_largest_state_space_under_its_cap_and_refuses_the_next(
        monkeypatch, capsys):
    monkeypatch.setattr(analysis, "CENSUS_MAX_STATES", 64)
    assert main(["analyze", "census", "--kind", "pairs", "--n", "6", "--alpha", "3"]) == EXIT_OK
    assert capsys.readouterr().out.encode() == (
        GOLDEN / "analyze-census-pairs.stdout").read_bytes()

    def no_table(*args):
        raise AssertionError("a state was read")

    monkeypatch.setattr(analysis, "_MoveTable", no_table)
    assert main(["analyze", "census", "--kind", "pairs", "--n", "8", "--alpha", "3"]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: state space has 256 states, over the cap 64\n"


def test_census_refuses_a_black_box_over_its_cap_after_scanning_the_zero_state(
        tmp_path, monkeypatch, capsys):
    # winding is a black box: one run, rescanned whole at every state
    monkeypatch.setattr(analysis, "CENSUS_MAX_BLACK_BOX_STATES", 2 ** 8)
    assert main(["analyze", "census", "--instance", str(GOLDEN / "w4.json")]) == EXIT_OK
    assert capsys.readouterr().out.startswith("states=256 local_maxima=1 ")
    # a landscape with a memo is not held to it
    assert main(["analyze", "census", "--kind", "pairs", "--n", "10"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("states=1024 ")
    assert main(["gen", "winding", "--n", "5", "-o", str(tmp_path / "w5.json")]) == EXIT_OK
    capsys.readouterr()
    scans = []
    rescan = WindingLandscape._rescan

    def counted(self, state, variables):
        scans.append(state)
        return rescan(self, state, variables)

    monkeypatch.setattr(WindingLandscape, "_rescan", counted)
    assert main(["analyze", "census", "--instance", str(tmp_path / "w5.json")]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: state space has 1024 states, over the cap 256\n"
    assert scans == [(0,) * 10]  # the zero state alone


def test_verify_pathwidth_runs_the_largest_n_under_its_cap_and_refuses_the_next(
        monkeypatch, capsys):
    monkeypatch.setattr(analysis, "PATHWIDTH_MAX_N", 4)
    assert main(["verify", "pathwidth", "--n", "4"]) == EXIT_OK
    assert capsys.readouterr().out.encode() == (GOLDEN / "verify-pathwidth.stdout").read_bytes()

    def no_instance(*args):
        raise AssertionError("an instance was built")

    monkeypatch.setattr(counting, "make_counting_boolean_instance", no_instance)
    assert main(["verify", "pathwidth", "--n", "5"]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the pathwidth check to N=5 is over the cap 4\n"


def test_degree_bounds_run_the_largest_n_under_their_cap_and_refuse_the_next(
        monkeypatch, capsys):
    monkeypatch.setattr(cli, "DEGREE_BOUNDS_MAX_N", 5)
    assert main(["analyze", "degree-bounds", "--n", "5"]) == EXIT_OK
    assert capsys.readouterr().out.encode() == (
        GOLDEN / "analyze-degree-bounds.stdout").read_bytes()

    def no_landscape(*args):
        raise AssertionError("a landscape was built")

    monkeypatch.setattr(cli, "WindingLandscape", no_landscape)
    assert main(["analyze", "degree-bounds", "--n", "6"]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: degree bounds to --n 6 are over the cap 5\n"


def test_scaling_runs_the_largest_max_n_under_its_cap_and_refuses_the_next(
        monkeypatch, capsys):
    monkeypatch.setattr(cli, "SCALING_MAX_N", 3)
    assert main(["analyze", "scaling", "--max-n", "3"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[-1] == "3\t6\t14\t14"
    assert main(["analyze", "scaling", "--max-n", "4"]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: scaling to --max-n 4 is over the cap 3\n"


def test_verify_gradient_runs_the_largest_n_under_its_cap_and_refuses_the_next(
        monkeypatch, capsys):
    monkeypatch.setattr(analysis, "GRADIENT_MAX_N", 3)
    assert main(["verify", "gradient", "--n", "3"]) == EXIT_OK
    assert "origin gradient, semismooth n=3" in capsys.readouterr().out

    def no_landscape(*args):
        raise AssertionError("a landscape was built")

    monkeypatch.setattr(analysis, "WindingLandscape", no_landscape)
    assert main(["verify", "gradient", "--n", "4"]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the gradient formulas to n=4 are over the cap 3\n"


def test_census_writes_its_lines_to_out_and_prints_nothing(tmp_path, capsys):
    out = tmp_path / "census.txt"
    assert main(["analyze", "census", "--kind", "pairs", "--n", "6", "--alpha", "3",
                 "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == (GOLDEN / "analyze-census-pairs.stdout").read_bytes()


def test_analyze_gradient_reads_a_state_as_run_start_does(capsys):
    tables = []
    for at in ("010100", "0 1 0 1 0 0", "0,1,0,1,0,0"):
        assert main(["analyze", "gradient", "--n", "3", "--at", at]) == EXIT_OK
        tables.append(capsys.readouterr().out)
    assert tables[0] == tables[1] == tables[2] != ""
    assert main(["analyze", "gradient", "--n", "3", "--at", "0101"]) == EXIT_INVALID
    assert capsys.readouterr().err == "error: state has 4 bits, expected 6\n"


def test_verify_all_fails_when_one_member_suite_fails(monkeypatch, capsys):
    from ascentlab.winding import WindingLandscape

    # one closed form off by one: only the gradient suite can see it
    expected = WindingLandscape.origin_gradient_expected
    monkeypatch.setattr(WindingLandscape, "origin_gradient_expected",
                        lambda self: (expected(self)[0] + 1, *expected(self)[1:]))
    assert main(["verify", "all"]) == EXIT_VERIFY_FAILED
    lines = capsys.readouterr().out.splitlines()
    failed = [line for line in lines if line.startswith("[FAIL]")]
    assert failed and all(line.startswith("[FAIL] winding gradient formulas: origin gradient")
                          for line in failed)
    assert lines[-1] == "result: FAIL"


def test_verify_gradient_fails_on_one_wrong_peak_gradient(monkeypatch, capsys):
    from ascentlab.winding import WindingLandscape

    # the level-2 peak's closed form off by one, at n = 3 only
    expected = WindingLandscape.peak_gradient_expected
    monkeypatch.setattr(WindingLandscape, "peak_gradient_expected", lambda self, k: (
        (expected(self, k)[0] + 1, *expected(self, k)[1:]) if (self.n, k) == (3, 2)
        else expected(self, k)))
    assert main(["verify", "gradient", "--n", "3"]) == EXIT_VERIFY_FAILED
    failed = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("[FAIL]")]
    assert failed == [
        "[FAIL] peak gradient, root2path n=3 k=2: "
        "got [-2, -1, 8, 8, 3, 0], expected [-1, -1, 8, 8, 3, 0]",
        "[FAIL] peak gradient, semismooth n=3 k=2: "
        "got [-3, -2, 13, 13, 4, 1], expected [-2, -2, 13, 13, 4, 1]"]


@pytest.mark.parametrize("case", json.loads((GOLDEN / "commands.json").read_text()),
                         ids=lambda case: case["name"])
def test_valid_commands_print_their_recorded_bytes(case, capsys):
    # stdout, stderr and exit code of each command, recorded once; a change to
    # the parser must leave every accepted command's output as it was
    argv = [arg.replace("{data}", str(GOLDEN)) for arg in case["argv"]]
    assert main(argv) == case["exit"]
    captured = capsys.readouterr()
    assert captured.out.encode() == (GOLDEN / f"{case['name']}.stdout").read_bytes()
    assert captured.err.encode() == (GOLDEN / f"{case['name']}.stderr").read_bytes()

