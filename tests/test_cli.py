import json
import os
import random
import subprocess
import sys

import pytest

from endochain import cli, ringio
from endochain.chain import build_chain_tree
from endochain.cli import main
from endochain.verify import generated_test_lattices


DATA = os.path.join(os.path.dirname(__file__), "..", "data")


def ring_path(name):
    return os.path.join(DATA, "rings", name + ".json")


def run_cli(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr().out
    return status, json.loads(out)


def test_ring_report(capsys):
    status, rep = run_cli(capsys, "ring", "--input", ring_path("semigroup_1"))
    assert status == 0
    assert rep["multiplicity"] == 1 and rep["is_dvr_product"]


def test_ring_round_trip(capsys):
    status, rep = run_cli(capsys, "ring", "--input", ring_path("tacnode"))
    assert status == 0
    ring1 = ringio.ring_from_json(ringio.load_json(ring_path("tacnode")))
    ring2 = ringio.ring_from_json(rep["definition"])
    assert ring1.key() == ring2.key()


def test_chain_2_5(capsys):
    status, rep = run_cli(capsys, "chain", "--input", ring_path("semigroup_2_5"))
    assert status == 0
    assert rep["n"] == 2 and rep["multiplicity"] == 2 and rep["delta"] == 2
    assert rep["normalization_check"]


def test_gldim_2_3(capsys):
    status, rep = run_cli(capsys, "gldim", "--ring", ring_path("semigroup_2_3"))
    assert status == 0
    assert rep["gldim"] == 2 and rep["bound_chain_depth_plus_one"] == 2
    assert rep["projectivization_check"]


def test_chain_deeper_than_64(capsys, tmp_path):
    # <2,131> = A_130 has chain depth 65 = delta; no depth cap stops it
    path = tmp_path / "semigroup_2_131.json"
    path.write_text(json.dumps({"field": {"kind": "rational"}, "semigroup": [2, 131]}))
    status, rep = run_cli(capsys, "chain", "--input", str(path))
    assert status == 0
    assert rep["n"] == 65 and rep["delta"] == 65


def test_gldim_4_9_agrees_across_fields(capsys, tmp_path):
    # gldim and the pd of every simple of <4,9> over QQ and over GF(32003)
    reps = []
    for field in ({"kind": "rational"}, {"kind": "prime", "p": 32003}):
        path = tmp_path / "semigroup_4_9.json"
        path.write_text(json.dumps({"field": field, "semigroup": [4, 9]}))
        status, rep = run_cli(capsys, "gldim", "--ring", str(path))
        assert status == 0
        reps.append(rep)
    assert reps[0]["gldim"] == reps[1]["gldim"] == 3
    assert reps[0]["pd_per_simple"] == reps[1]["pd_per_simple"]


def test_gldim_env_pd_cap(capsys, monkeypatch):
    monkeypatch.setenv("ENDOCHAIN_PD_CAP", "7")
    status, rep = run_cli(capsys, "gldim", "--ring", ring_path("semigroup_1"))
    assert status == 0 and rep["gldim"] == 1


_CUSP_MCM = {
    "modules": [
        {"ambient_rank": [1], "generators": [[[[[0, "1"]]]], [[[[2, "1"]]]], [[[[3, "1"]]]]]},
        {"ambient_rank": [1], "generators": [[[[[0, "1"]]]], [[[[1, "1"]]]]]},
    ]
}


@pytest.fixture
def endless_syzygies(monkeypatch):
    """Syzygies that never vanish: every simple's sink step leaves a second
    syzygy (P_i, for the Gamma loop) and each minimal cover step returns its
    input, so every simple's resolution runs into a cap."""
    from endochain import endo
    from oracle import projective_gamma

    monkeypatch.delenv("ENDOCHAIN_PD_CAP", raising=False)
    monkeypatch.setattr(endo, "sink_syzygy", lambda alg, i: (None, projective_gamma(alg, i)))
    monkeypatch.setattr(endo, "minimal_cover_syzygy", lambda q: ((0,), q))


def test_pd_past_chain_bound_is_claim_violation(capsys, endless_syzygies):
    # on the chain family gldim <= n + 1 is proven: a syzygy still nonzero
    # after n + 1 = 2 steps on <2,3> is an engine fault, at any cap >= 2
    for cap in ([], ["--pd-cap", "2"]):
        status, rep = run_cli(capsys, "gldim", "--ring", ring_path("semigroup_2_3"), *cap)
        assert status == 1
        assert rep["code"] == "ClaimViolation" and rep["context"] == {"simple": "S0", "bound": 2}


def test_default_cap_keeps_the_chain_bound_past_16(capsys, tmp_path, endless_syzygies):
    # <2,33> has chain depth 16: with no --pd-cap and no ENDOCHAIN_PD_CAP
    # the cap is the proven bound n + 1 = 17, so the guard still holds
    path = tmp_path / "semigroup_2_33.json"
    path.write_text(json.dumps({"field": {"kind": "rational"}, "semigroup": [2, 33]}))
    status, rep = run_cli(capsys, "gldim", "--ring", str(path))
    assert status == 1
    assert rep["code"] == "ClaimViolation" and rep["context"] == {"simple": "S0", "bound": 17}


def test_pd_cap_below_chain_bound_reports_capped(capsys, endless_syzygies):
    # a user cap below n + 1 keeps the capped report
    status, rep = run_cli(capsys, "gldim", "--ring", ring_path("semigroup_2_3"), "--pd-cap", "1")
    assert status == 0
    assert rep["capped"] and rep["gldim"] is None


def test_pd_cap_on_mcm_list_reports_capped(capsys, tmp_path, endless_syzygies):
    # no bound is proven for a user's MCM list: the cap gives a capped report
    mf = tmp_path / "mcm.json"
    mf.write_text(json.dumps(_CUSP_MCM))
    status, rep = run_cli(capsys, "gldim", "--ring", ring_path("semigroup_2_3"), "--mcm", str(mf))
    assert status == 0
    assert rep["capped"] and rep["gldim"] is None


def test_resolve_worked_example(capsys):
    status, rep = run_cli(
        capsys,
        "resolve",
        "--ring",
        ring_path("semigroup_3_4"),
        "--module",
        os.path.join(DATA, "modules", "j_over_3_4.json"),
    )
    assert status == 0
    assert rep["length"] == 1
    assert rep["terms"][0]["decomposition"] == ["S1", "S1", "S2"]
    assert rep["terms"][1]["decomposition"] == ["S2", "S2"]
    assert all(rep["certificates"]["hom_exact"].values())


def test_one_parser_per_process(capsys, monkeypatch, tmp_path):
    # gldim, resolve, gldim through one process's main and its one parser:
    # each report is byte-identical to a fresh interpreter's, each call gets
    # its own namespace, and ENDOCHAIN_PD_CAP is read on every call
    mf = tmp_path / "mcm.json"
    mf.write_text(json.dumps({"modules": [{"ambient_rank": [1], "generators": [[[[[0, "1"]]]]]}]}))
    ring, module = ring_path("semigroup_3_4"), os.path.join(DATA, "modules", "j_over_3_4.json")
    calls = [
        (["gldim", "--ring", ring, "--mcm", str(mf), "--pd-cap", "5"], None, {"mcm": str(mf), "pd_cap": 5}),
        (["resolve", "--ring", ring, "--module", module], "3", {"module": module}),
        (["gldim", "--ring", ring], "7", {"mcm": None, "pd_cap": 7}),
    ]
    seen = []

    def recording(cmd):
        def run(args):
            seen.append(vars(args).copy())
            return cmd(args)

        return run

    for name in ("cmd_gldim", "cmd_resolve"):
        monkeypatch.setattr(cli, name, recording(getattr(cli, name)))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    for argv, cap, expect in calls:
        env = dict(os.environ, PYTHONPATH=src)
        env.pop("ENDOCHAIN_PD_CAP", None)
        monkeypatch.delenv("ENDOCHAIN_PD_CAP", raising=False)
        if cap:
            env["ENDOCHAIN_PD_CAP"] = cap
            monkeypatch.setenv("ENDOCHAIN_PD_CAP", cap)
        status = main(argv)
        fresh = subprocess.run([sys.executable, "-m", "endochain.cli", *argv], env=env, capture_output=True, text=True)
        assert (status, capsys.readouterr().out) == (fresh.returncode, fresh.stdout)
        assert seen[-1] == dict(expect, output="json", command=argv[0], ring=ring, double_check=False)
    assert len(seen) == 3 and cli.build_parser() is cli.build_parser()


def _fresh(argv):
    """(exit status, stdout) of ``argv`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    env.pop("ENDOCHAIN_PD_CAP", None)
    out = subprocess.run([sys.executable, "-m", "endochain.cli", *argv], env=env, capture_output=True, text=True)
    return out.returncode, out.stdout


@pytest.fixture
def empty_memos(monkeypatch):
    """Start from no loaded rings and no chain trees; count tree builds by
    the ring they were built from."""
    monkeypatch.delenv("ENDOCHAIN_PD_CAP", raising=False)
    monkeypatch.setattr(cli, "_rings", {})
    monkeypatch.setattr(cli, "_trees", {})
    built = []

    def counting(ring, *a, **kw):
        built.append(ring)
        return build_chain_tree(ring, *a, **kw)

    monkeypatch.setattr(cli, "build_chain_tree", counting)
    return built


def test_repeated_commands_match_fresh_processes(capsys, tmp_path, empty_memos):
    # ring, chain, resolve and gldim on two rings, each twice in a shuffled
    # order through one process: every report and exit status is the fresh
    # interpreter's, and resolve and gldim build one tree per ring
    ring = ringio.ring_from_json(ringio.load_json(ring_path("semigroup_3_4")))
    _, lat = generated_test_lattices(random.Random("semigroup_3_4/0"), ring, build_chain_tree(ring), count=5)[4]
    corpus_module = tmp_path / "lattice.json"
    corpus_module.write_text(json.dumps(ringio.lattice_to_json(lat)))
    calls = []
    for name in ("semigroup_3_4", "semigroup_2_5"):
        calls += [["ring", "--input", ring_path(name)], ["chain", "--input", ring_path(name)], ["gldim", "--ring", ring_path(name)]]
    for module, name in (("j_over_3_4", "semigroup_3_4"), ("m_over_2_5", "semigroup_2_5")):
        calls.append(["resolve", "--ring", ring_path(name), "--module", os.path.join(DATA, "modules", module + ".json")])
    calls.append(["resolve", "--ring", ring_path("semigroup_3_4"), "--module", str(corpus_module)])
    expected = {tuple(argv): _fresh(argv) for argv in calls}
    sequence = calls * 2
    random.Random(15).shuffle(sequence)
    for argv in sequence:
        assert (main(argv), capsys.readouterr().out) == expected[tuple(argv)]
    # per ring (delta 2 and 3): one stored tree, and one per chain report
    assert sorted(r.delta() for r in empty_memos) == [2, 2, 2, 3, 3, 3]
    assert len(cli._rings) == 2 and len(cli._trees) == 2


def test_double_check_builds_its_own_tree_once(capsys, empty_memos):
    argv = ["resolve", "--ring", ring_path("semigroup_2_5"), "--module", os.path.join(DATA, "modules", "m_over_2_5.json"), "--double-check"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert json.loads(first)["double_check"] == "ok"
    ring, doubled = empty_memos
    assert doubled is not ring and doubled.key() == ring.key()
    assert doubled.window_bound == 2 * ring.window_bound
    assert main(argv) == 0
    assert capsys.readouterr().out == first and len(empty_memos) == 2


def test_ring_file_rewritten_in_place(capsys, tmp_path, empty_memos):
    # the memo follows the file's content; definitions that fail to load
    # (exit 2) or to build (exit 1) leave nothing behind
    path = tmp_path / "ring.json"
    for text in ("{not json", '{"semigroup": [2, 4]}', '{"semigroup": [2, 3]}', '{"semigroup": [2, 5]}', '{"semigroup": [2, 3]}'):
        path.write_text(text)
        for cmd in (["ring", "--input", str(path)], ["gldim", "--ring", str(path)]):
            assert (main(cmd), capsys.readouterr().out) == _fresh(cmd)
    assert [r.delta() for r in empty_memos] == [1, 2] and len(cli._rings) == 2


def test_double_check_flags(capsys):
    status, rep = run_cli(
        capsys, "chain", "--input", ring_path("node"), "--double-check"
    )
    assert status == 0 and rep["double_check"] == "ok"
    status, rep = run_cli(
        capsys, "ring", "--input", ring_path("semigroup_2_7"), "--double-check"
    )
    assert status == 0 and rep["double_check"] == "ok"


def test_schema_error_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    status, rep = run_cli(capsys, "ring", "--input", str(bad))
    assert status == 2
    assert rep["code"] == "SchemaError"


def test_engine_error_exit_1(capsys, tmp_path):
    diag = tmp_path / "diagonal.json"
    diag.write_text(
        json.dumps(
            {
                "field": {"kind": "rational"},
                "branches": 2,
                "generators": [[[[1, "1"]], [[1, "1"]]]],
            }
        )
    )
    status, rep = run_cli(capsys, "ring", "--input", str(diag))
    assert status == 1
    assert rep["code"] == "NoFiniteConductor"


def test_missing_file_exit_2(capsys):
    status, rep = run_cli(capsys, "ring", "--input", "/nonexistent/ring.json")
    assert status == 2


def test_closed_stdout_exit_2_without_traceback():
    # the reader of stdout is closed before the report is written, so the
    # write fails with EPIPE however fast the process is
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    argv = [sys.executable, "-m", "endochain.cli", "ring", "--input", ring_path("node")]
    try:
        out = subprocess.run(argv, env=env, stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert out.returncode == 2
    assert "Traceback" not in out.stderr and "BrokenPipeError" not in out.stderr


def test_fcmt_via_cli(capsys, tmp_path):
    # MCM list for the cusp: R and E
    mods = {
        "modules": [
            {"ambient_rank": [1], "generators": [[[[[0, "1"]]]], [[[[2, "1"]]]], [[[[3, "1"]]]]]},
            {"ambient_rank": [1], "generators": [[[[[0, "1"]]]], [[[[1, "1"]]]]]},
        ]
    }
    mf = tmp_path / "mcm.json"
    mf.write_text(json.dumps(mods))
    status, rep = run_cli(
        capsys, "gldim", "--ring", ring_path("semigroup_2_3"), "--mcm", str(mf)
    )
    assert status == 0
    assert rep["gldim"] == 2
    assert rep["assumptions"]


def test_isomorphic_rank_two_mcm_exit_1(capsys, tmp_path, e6_syzygy):
    r, k, tk = e6_syzygy
    mf = tmp_path / "mcm.json"
    mf.write_text(json.dumps({"modules": [ringio.lattice_to_json(x) for x in (r.self_lattice, k, tk)]}))
    status, rep = run_cli(capsys, "gldim", "--ring", ring_path("semigroup_3_4"), "--mcm", str(mf))
    assert status == 1
    assert rep["code"] == "DuplicateSummand"
    assert set(rep) == {"code", "message", "context"}


def test_verify_quick_suite(capsys):
    status, rep = run_cli(
        capsys, "verify", "--suite", "chain", "--seed", "3"
    )
    assert status == 0
    assert rep["all_passed"]


def test_text_output_mode(capsys):
    status = main(["--output", "text", "ring", "--input", ring_path("semigroup_1")])
    out = capsys.readouterr().out
    assert status == 0
    assert "multiplicity: 1" in out


def test_verify_all_exit_contract(capsys):
    # reduced case count keeps this quick; exit 0 is the shipped contract
    status, rep = run_cli(
        capsys, "verify", "--suite", "all", "--seed", "11", "--cases", "24"
    )
    assert status == 0 and rep["all_passed"]
    assert {c["name"] for c in rep["checks"]} == {
        "lemma_hom_agreement",
        "chain_invariants",
        "resolver_suite",
        "endo_suite",
    }


def test_module_tail_claim_is_checked(capsys, tmp_path):
    # t^2 R over <2,3>: the minimal tail is 4, so the claim "tail 0" (which
    # would make the module t^2 E = E) is false; t^2 R is free (S0)
    gen = {"ambient_rank": [1], "generators": [[[[[2, "1"]]]]]}
    path = tmp_path / "t2.json"
    for tail, decomposition in [(None, ["S0"]), ([[6]], ["S0"]), ([[0]], None)]:
        path.write_text(json.dumps(dict(gen, tail=tail)))
        status, rep = run_cli(
            capsys, "resolve", "--ring", ring_path("semigroup_2_3"), "--module", str(path)
        )
        if decomposition is None:
            assert status == 2 and rep["code"] == "SchemaError"
            assert rep["context"] == {"branch": 0, "slot": 0, "claimed_tail": 0, "derived_tail": 4}
        else:
            assert status == 0
            assert rep["terms"][0]["decomposition"] == decomposition


RING_2_3 = {"field": {"kind": "rational"}, "branches": 1, "generators": [[[[2, "1"]]], [[[3, "1"]]]]}
MODULE_E = {"ambient_rank": [1], "generators": [[[[[0, "1"]]]], [[[[1, "1"]]]]]}


def _with(base, **changes):
    return dict(json.loads(json.dumps(base)), **changes)


MALFORMED_RINGS = {
    "coefficient_abc": _with(RING_2_3, generators=[[[[2, "abc"]]], [[[3, "1"]]]]),
    "coefficient_1_over_0": _with(RING_2_3, generators=[[[[2, "1/0"]]], [[[3, "1"]]]]),
    "coefficient_bool": _with(RING_2_3, generators=[[[[2, True]]], [[[3, "1"]]]]),
    "gf_coefficient_1_over_p": _with(
        RING_2_3, field={"kind": "prime", "p": 101}, generators=[[[[2, "1/101"]]], [[[3, "1"]]]]
    ),
    "gf_coefficient_abc": _with(
        RING_2_3, field={"kind": "prime", "p": 101}, generators=[[[[2, "a/b"]]], [[[3, "1"]]]]
    ),
    "p_not_a_number": {"semigroup": [2, 3], "field": {"kind": "prime", "p": "x"}},
    "p_beyond_the_primality_proof": {"semigroup": [2, 3], "field": {"kind": "prime", "p": 10**30 + 57}},
    "exponent_not_integer": _with(RING_2_3, generators=[[[[2.5, "1"]]], [[[3, "1"]]]]),
    "semigroup_entry_not_integer": {"semigroup": [2, 3.5]},
    "branches_not_integer": _with(RING_2_3, branches="1"),
    "generators_not_a_list": _with(RING_2_3, generators=5),
    "branches_zero": _with(RING_2_3, branches=0, generators=[]),
    "branches_negative": _with(RING_2_3, branches=-1, generators=[]),
}

MALFORMED_MODULES = {
    "ambient_rank_not_integer": _with(MODULE_E, ambient_rank=[1.0]),
    "tail_not_integer": _with(MODULE_E, tail=[[0.5]]),
    "coefficient_bool": _with(MODULE_E, generators=[[[[[2, True]]]], [[[[1, "1"]]]]]),
    "exponent_not_integer": _with(MODULE_E, generators=[[[[[0, "1"]]]], [[[[0.5, "1"]]]]]),
    "generators_not_a_list": _with(MODULE_E, generators=5),
    "generator_not_a_list": _with(MODULE_E, generators=[5]),
    "branch_entry_not_a_list": _with(MODULE_E, generators=[[5]]),
    "ambient_rank_negative": _with(MODULE_E, ambient_rank=[-1], generators=[]),
}

MALFORMED_MCM_LISTS = {
    "modules_not_a_list": {"modules": 5},
    "file_not_an_object": [1],
    "modules_missing": {},
}


@pytest.mark.parametrize("name", sorted(MALFORMED_RINGS))
def test_malformed_ring_value_exit_2(capsys, tmp_path, name):
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(MALFORMED_RINGS[name]))
    status, rep = run_cli(capsys, "ring", "--input", str(path))
    assert status == 2 and rep["code"] == "SchemaError"


@pytest.mark.parametrize("name", sorted(MALFORMED_MODULES))
def test_malformed_module_value_exit_2(capsys, tmp_path, name):
    path = tmp_path / "module.json"
    path.write_text(json.dumps(MALFORMED_MODULES[name]))
    status, rep = run_cli(
        capsys, "resolve", "--ring", ring_path("semigroup_2_3"), "--module", str(path)
    )
    assert status == 2 and rep["code"] == "SchemaError"


@pytest.mark.parametrize("name", sorted(MALFORMED_MCM_LISTS))
def test_malformed_mcm_list_exit_2(capsys, tmp_path, name):
    path = tmp_path / "mcm.json"
    path.write_text(json.dumps(MALFORMED_MCM_LISTS[name]))
    status, rep = run_cli(
        capsys, "gldim", "--ring", ring_path("semigroup_2_3"), "--mcm", str(path)
    )
    assert status == 2 and rep["code"] == "SchemaError"


def test_characteristic_primality():
    from endochain.field import FieldSpec, _is_prime

    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))

    assert all(_is_prime(n) == trial(n) for n in range(3000))
    # strong pseudoprimes to the first 4, 7 and 12 prime bases
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not _is_prime(n)
    assert FieldSpec("prime", 2**61 - 1).characteristic == 2**61 - 1
