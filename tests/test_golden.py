"""Golden stdout of the CLI on the sample scenarios and round-trip documents.

Each entry is the sha256 of what ``marketdyn COMMAND FILE`` prints on
success. The digests were recorded before the scenario dispatch was
rewritten as one per-kind table, and the long-run digests before the
ODE fallback routes (churn flows, the matrix exponential, the bpq peak
refinement) were rewritten; any change to parsing, dispatch, metrics,
solving or rendering that moves a byte shows up here. One long-run
digest was re-pinned when fixed-step RK4 gave way to the adaptive
Dormand-Prince integrator, and the case 2, case 5 and periodic-churn
digests when one Gauss-Kronrod rule replaced adaptive Simpson, the
5-point Gauss-Legendre panel and the composite Simpson of the periodic
route. The 1000-sample feedback digests were recorded before the u^n
growth integral became an exact series and the inverted kernels a
warm-started Newton iteration; three of them were re-pinned for it. The
1000-sample pins of the closed-form kernels and the equilibrium pins of
every kernel were recorded before the kernels were declared in one table.
The 1000-sample pins of bpq case 4 and of the case 2 scenario at horizon
100 were recorded before a Newton inversion of t(Q) replaced the 512-node
ladder of cases 2 and 4. The 1000-sample pins of the five bpq case 1
routes were recorded before the bpq cases were declared in one table; the
linear inflow's, on an error-function route since removed, holds on the
integrating-factor route. The
1000-sample pins of the integrated market without churn and with
spontaneous churn, and of the singular-Q fallback of the innovators' path,
were recorded before DOP853 replaced the Dormand-Prince 5(4) pair; that
change re-pinned the periodic-churn, bpq case 3 and singular-Q digests.
The 1000-sample pins of absorbing hesitation, birth/death, one-way
spontaneous churn and complementary games, and the case 1 calibration
pins, were recorded before one divided-difference kernel replaced the
confluent-limit branches of their closed forms.
Each re-pinned entry says which values moved and why.
"""

import hashlib
import json
from pathlib import Path

import pytest
from test_scenario_cli import ROUND_TRIP_DOCS, ROUND_TRIP_IDS

from marketdyn import cli, competition, feedback, scenario
from marketdyn.trajectory import time_grid

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def stdout_digest(argv, capsys) -> str:
    assert cli.main(argv) == cli.EXIT_OK
    return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


GOLDEN = {
    ("calibrate", "calibrate_game_peak.json"):
        "fa9d6eec31f1e03d4f9bb7bb85c110ad4f78c8839eb89c0fccff6ed94b0c4d35",
    ("simulate", "complementary_games.json"):
        "1969164996de4543afcd069aebdb84c15a3411a99705b351c9a7be837dec345f",
    ("metrics", "complementary_games.json"):
        "a477b5f81f2c25ad62aae98bcf4369996087043b349beb2efe30fc567529db9a",
    # Re-pinned for the Gauss-Kronrod rule: 332 printed values on 191 of
    # 1001 lines moved in the 9th digit, each toward the mpmath solution of
    # t(Q), e.g. P at t = 11.261261 (23.9904987 -> 23.9904988; reference
    # 23.9904987554).
    ("simulate", "game_lifecycle_sir.json"):
        "bb7581b8fe43655a3e8a64c430e882ae434a2a175c3bd116e5441cdf3cc5a9a5",
    ("metrics", "game_lifecycle_sir.json"):
        "d6031be8a30c65b3631897c4aa1f14a3d47bda668ab57a08a1cac296be349d09",
    ("simulate", "messaging_network_effect.json"):
        "a13441256b9a18708d8321091e25c405f0bd8acb1ca1e07a44196436998eb6ff",
    ("metrics", "messaging_network_effect.json"):
        "23a6ed231bb43c95805c679daadefaa7fee19031a2f02835ee4c82c4796c6192",
    ("equilibrium", "messaging_network_effect.json"):
        "8f619a161bc98dd6fb91a924b7d0fcb7911c704c531275e6121ff157cc6e1a34",
    ("simulate", "smartphone_adoption.json"):
        "0f72246a2d1241ee11cbc9aab13cf9d3fa9c831661645b6964ae6c341269afff",
    ("metrics", "smartphone_adoption.json"):
        "71618479ef3c28d36b5a268470c200929e3359de8438f7ac904251b3717f8f8f",
    ("simulate", "two_supplier_churn.json"):
        "250f6182fa41401ca9032c9aacee16cf64113462a5267a9c2140812c3e6b0462",
    ("metrics", "two_supplier_churn.json"):
        "9ae6e411ed1d79413f1489c727b7c344b45fd156098a6bf011dc812bcb78062b",
    ("equilibrium", "two_supplier_churn.json"):
        "322613e53b82ef00cd95a4a91bb8bf1f0c45f72832e7eecae5de8a68c3ec1680",
}


@pytest.mark.parametrize("command,name", sorted(GOLDEN),
                         ids=[f"{c}-{n.removesuffix('.json')}" for c, n in sorted(GOLDEN)])
def test_cli_stdout_matches_golden_digest(command, name, capsys):
    assert stdout_digest([command, str(SCENARIOS / name)], capsys) == GOLDEN[(command, name)]


def test_golden_covers_every_sample_scenario():
    assert {name for _, name in GOLDEN} == {p.name for p in SCENARIOS.glob("*.json")}


#: ``COMMAND --samples 40`` on each document of the scenario round-trip
#: tests, which cover every model kind, bpq case and churn variant.
ROUND_TRIP_GOLDEN = {
    ("simulate", "simple"):
        "722f439fa088298f4549fad0c43f7738897d4891c9ae7f335ad49e3c958551fe",
    ("metrics", "simple"):
        "71618479ef3c28d36b5a268470c200929e3359de8438f7ac904251b3717f8f8f",
    ("simulate", "scheduled"):
        "9330bb134a30cbf74bd037b19f0bb99cb785e3b43a8b435360d0e91d6596b6ac",
    ("metrics", "scheduled"):
        "dbc4d7f362cee17fbda2362d39e5d93f2ee6bd9a8fe53af976cb7d52210212a0",
    ("simulate", "segmented"):
        "d49b557e62bbfa7993661aa3fec041e42784617ebf96cac5e0f5f2ff72f7a72c",
    ("metrics", "segmented"):
        "92022004446e73cb69d041cbdcfae46204cbf2625e6ea8ad2bdd4fbde8064192",
    ("simulate", "hesitation"):
        "a9b90b0924d2618085178f9325d3f9ec9376bb2d21bb96ccbf6a5818fc597604",
    ("metrics", "hesitation"):
        "2c9e622554a077e9346248c7aecf56515ddb407b628d14282141cf8e0f4e1551",
    ("simulate", "birth_death"):
        "b6c694345c8f69be1bde2a611e080dd7d2633a639018958e4efe8a485432ef7f",
    ("metrics", "birth_death"):
        "68698fcc6e3f0cba86847f6d98a5c6023652417dec592ce7bc3f8b54209f0c04",
    ("simulate", "feedback"):
        "d0cc69275448349eedb449add773a6c6957243fd335a4f56d0e01b4d4a454917",
    ("metrics", "feedback"):
        "100c25093cdd2a6c6ece3e436b91dc3e9412e840318a600497a631d562fc256e",
    ("equilibrium", "feedback"):
        "bfa815de10476b07a03940df803d22edc283517a60d37b3f129c95bb98471f8f",
    ("simulate", "innovators_only"):
        "d989098bb05fcde5b82c618f49b32215979f8ea22e9063ee754a5f9152d33ca9",
    ("metrics", "innovators_only"):
        "1350dd836a6d11e92bd129da127b538d2d44cb298ae0adee93a1e2659fd11a11",
    ("simulate", "bass_competition"):
        "8762038326770edbafd610824f139cf7912ef7510c5a265978041cb598209263",
    ("metrics", "bass_competition"):
        "7e51e71d955a0f8de2584c8009b0ed379013c1061638e5834ce0014b17c9e44e",
    ("equilibrium", "bass_competition"):
        "e97c81d0acbacb12aaeb3a635e8bcd4c9d908358da24f3a6cf1dce1f4cd42c83",
    ("simulate", "spontaneous_churn"):
        "03d85144fadeea70e919da73f44937c377d6ebddda8d3575b080596031169c47",
    ("metrics", "spontaneous_churn"):
        "9ae6e411ed1d79413f1489c727b7c344b45fd156098a6bf011dc812bcb78062b",
    ("equilibrium", "spontaneous_churn"):
        "322613e53b82ef00cd95a4a91bb8bf1f0c45f72832e7eecae5de8a68c3ec1680",
    # Re-pinned for the Gauss-Kronrod rule (this and the no_eps21 variant,
    # whose output is the same): the periodic channel moved in the 9th digit
    # on 22 of 41 lines, each toward the mpmath solution, e.g. at
    # t = 1.5384615 (-0.00806118593 -> -0.00806118592; reference
    # -0.00806118592424).
    ("simulate", "periodic_churn"):
        "519075ab364d6b9868fdc2f051abf16057014bbeef4b33796ca75d8d5163568a",
    ("metrics", "periodic_churn"):
        "6fc39d32cbf8072bc17d2c642a23d9a691fa5d588901038172307bd7c32fae5a",
    ("equilibrium", "periodic_churn"):
        "f0d8be4943299239658f5eec1ba115718081153f96940646d6cbf58e7f735175",
    ("simulate", "stimulated_churn"):
        "b73851d3bfef4775ac05ef2f6d8fdedded18b645cb286652fab94f1d654387be",
    ("metrics", "stimulated_churn"):
        "c71ccfaa46341e30ec42873a2d6cf71651b3f3f789a6c77489e91efe085b8cf6",
    ("equilibrium", "stimulated_churn"):
        "e97c81d0acbacb12aaeb3a635e8bcd4c9d908358da24f3a6cf1dce1f4cd42c83",
    # Re-pinned for the Newton inversion of t(Q), which runs on to the final
    # size where the 512-node ladder stopped 1e-8 q_inf short of it: 104
    # values on the 26 lines from t = 10.77 on moved, each toward the mpmath
    # solution, e.g. P at t = 12.307692 (8.6979129e-06 -> 7.58487016e-08;
    # reference 7.58487016247e-08).
    ("simulate", "bpq"):
        "73ddf0f5597703fb397fe821c145ffac7692e29ef9b8825eacee9e8c7bb211c0",
    ("metrics", "bpq"):
        "741e1f88eed6672dedf4ed4cb24778d2ac1db060097be594093efc709a40f0a4",
    ("simulate", "complementary"):
        "c2531675fed985a2e27a3b8b204cfabf60468fff4b8996a22d22b57b18250cfc",
    ("metrics", "complementary"):
        "cffb0addc733f5f34dc9800ff4925dbabf791576290465f04f9b9ca39f2059a8",
    ("simulate", "feedback_T50"):
        "d9b6b215430b3a9f6e87b26cfb7bea93c94002d4613fa0e32ede3cd049f0847d",
    ("metrics", "feedback_T50"):
        "1c2c06d3697e3c1641c8b364e6d920c2823a76e885774faa4779db4814779e03",
    ("equilibrium", "feedback_T50"):
        "0ecd8ae74931dc7dfa4342bcb41d874414905428ec2cb569ad376d9305b556d9",
    ("simulate", "hesitation_variant_2"):
        "a9b90b0924d2618085178f9325d3f9ec9376bb2d21bb96ccbf6a5818fc597604",
    ("metrics", "hesitation_variant_2"):
        "2c9e622554a077e9346248c7aecf56515ddb407b628d14282141cf8e0f4e1551",
    ("simulate", "bpq_case1_shorthand"):
        "e5db03cb987cc406e69ef09d21b0a826ff56a842ce310e3a9ae19b7a5e392155",
    ("metrics", "bpq_case1_shorthand"):
        "e4f5e6a055a39db0b0109373e6a89b6c453eaa4062e03a3ab65ffb1a761c8104",
    # Re-pinned for the Gauss-Kronrod rule: 17 printed values on 11 of 41
    # lines moved, each toward the mpmath solution of t(Q), e.g. D at
    # t = 11.538462 (0.909117841 -> 0.909117846; reference 0.9091178457).
    ("simulate", "bpq_case2"):
        "1aefd44652a697cddbba31989478dab7b7c4991be5b5d001c304d0a11e97479a",
    ("metrics", "bpq_case2"):
        "d6031be8a30c65b3631897c4aa1f14a3d47bda668ab57a08a1cac296be349d09",
    ("simulate", "bpq_case3"):
        "6dda88240726cf42605a8a5d8b0bde0b05c6af5d30c2f2ea56d603b1b2a00677",
    ("metrics", "bpq_case3"):
        "2c1d603ee4e8ccbd39943e35ff6b0018f40440ee302bd3ca8c4bca9410964dad",
    # Re-pinned for the Gauss-Kronrod rule: one value moved toward the
    # mpmath solution, P at t = 23.846154 (0.136772033 -> 0.136772032;
    # reference 0.136772032499).
    ("simulate", "bpq_case5"):
        "879e3fd961b865cd960979c6f2f515e135ebed14fa7ddc4bb1abb076b9ef7120",
    ("metrics", "bpq_case5"):
        "b460ee432aaac5d1bb740388d97891a8bf5293abbf88e9a3a37ffe6901398d8c",
    ("simulate", "bpq_case6"):
        "539d1c81fe6578ef6f7b1ea27a09b428d1835b5aa069e37b5d98a147360c5e41",
    ("metrics", "bpq_case6"):
        "4396db0b6c2f139b49383323b5a883627ee028904a915a8de4bd52ff88ca9a76",
    ("simulate", "bass_competition_periodic_churn"):
        "155178f84cc8e6dc59a83d37c2f5a323d2fa60685f6f927c94fdfa67bbf9fd24",
    ("metrics", "bass_competition_periodic_churn"):
        "475861006b12641a988661736de4539499ebe2aeaa13273199ac5ee014b9016d",
    ("simulate", "periodic_churn_no_eps21"):
        "519075ab364d6b9868fdc2f051abf16057014bbeef4b33796ca75d8d5163568a",
    ("metrics", "periodic_churn_no_eps21"):
        "6fc39d32cbf8072bc17d2c642a23d9a691fa5d588901038172307bd7c32fae5a",
    ("equilibrium", "periodic_churn_no_eps21"):
        "f0d8be4943299239658f5eec1ba115718081153f96940646d6cbf58e7f735175",
}


@pytest.mark.parametrize("command,ident", sorted(ROUND_TRIP_GOLDEN),
                         ids=[f"{c}-{i}" for c, i in sorted(ROUND_TRIP_GOLDEN)])
def test_round_trip_documents_match_golden_digest(command, ident, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(ROUND_TRIP_DOCS[ROUND_TRIP_IDS.index(ident)]))
    digest = stdout_digest([command, str(path), "--samples", "40"], capsys)
    assert digest == ROUND_TRIP_GOLDEN[(command, ident)]


def test_every_model_kind_has_round_trip_golden_metrics():
    kinds = {ROUND_TRIP_DOCS[ROUND_TRIP_IDS.index(i)]["model"]["kind"]
             for c, i in ROUND_TRIP_GOLDEN if c == "metrics"}
    assert kinds == set(scenario.MODEL_KINDS)


#: Documents run at the default 1000 samples on the routes without a closed
#: form: the matrix exponential (five suppliers), the DOP853 integrator
#: without churn and with spontaneous, stimulated and periodic churn (three
#: suppliers, two modulations of one pair), the winner-take-all run, every
#: rate shape of bpq case 1 (closed form or quadrature), the bpq cases
#: solved through t(Q) (2, 4) or by quadrature (5) or by the DOP853
#: integrator (3, 6), the case 2 scenario run on into its tail, where P
#: falls by ten orders of magnitude, and every feedback kernel kind, whether
#: its u(t) is closed or inverts t(u) sample by sample, with its equilibria
#: (the power kernel on both sides of n = 1). The round-trip pins above run
#: at 40 samples only.
LONG_RUN_DOCS = {
    "spontaneous_churn_5": {"model": {
        "kind": "spontaneous_churn", "m": [0.4, 0.3, 0.2, 0.6, 0.1],
        "a": [[0.0, 0.3, 0.1, 0.0, 0.2], [0.5, 0.0, 0.2, 0.1, 0.0],
              [0.1, 0.4, 0.0, 0.3, 0.2], [0.0, 0.2, 0.1, 0.0, 0.6],
              [0.3, 0.0, 0.5, 0.2, 0.0]]}, "horizon": 25.0},
    "bass_competition_stimulated_3": {"model": {
        "kind": "bass_competition", "m": [0.3, 0.2, 0.1], "r": [0.8, 1.2, 0.5],
        "u0": [0.01, 0.02, 0.0],
        "churn": {"kind": "stimulated", "a": [[0.0, 0.4, 0.2], [0.3, 0.0, 0.5],
                                              [0.1, 0.6, 0.0]],
                  "b": [1.0, 0.5, 0.0], "eps": [1, 1, 1]}}, "horizon": 20.0},
    "bass_competition_periodic_3": {"model": {
        "kind": "bass_competition", "m": [0.3, 0.2, 0.1], "r": [0.8, 1.2, 0.5],
        "u0": [0.01, 0.02, 0.0],
        "churn": {"kind": "periodic", "a0": [[0.0, 0.8, 0.3], [0.5, 0.0, 0.4],
                                             [0.6, 0.2, 0.0]],
                  "eps": [{"i": 0, "j": 1, "terms": [
                              {"amplitude": 0.2, "period": 1.0, "phase": 0.5}]},
                          {"i": 2, "j": 0, "terms": [
                              {"amplitude": 0.1, "period": 2.0},
                              {"amplitude": 0.3, "period": 0.7, "phase": 1.0}]},
                          {"i": 0, "j": 1, "terms": [
                              {"amplitude": 0.4, "period": 3.0, "phase": 2.0}]}]}},
        "horizon": 20.0},
    "bass_competition_3": {"model": {
        "kind": "bass_competition", "m": [0.3, 0.2, 0.1], "r": [0.8, 1.2, 0.5],
        "u0": [0.01, 0.02, 0.0]}, "horizon": 20.0},
    "bass_competition_spontaneous_3": {"model": {
        "kind": "bass_competition", "m": [0.3, 0.2, 0.1], "r": [0.8, 1.2, 0.5],
        "u0": [0.01, 0.02, 0.0],
        "churn": {"kind": "spontaneous", "a": [[0.0, 0.4, 0.2], [0.3, 0.0, 0.5],
                                               [0.1, 0.6, 0.0]]}}, "horizon": 20.0},
    "stimulated_churn_winner_take_all": {"model": {
        "kind": "stimulated_churn", "a": [[0.0, 0.5, 0.3], [0.4, 0.0, 0.6],
                                          [0.2, 0.7, 0.0]],
        "b": [1.0, 1.5, 0.8], "eps": [0, 0, 0], "u0": [0.35, 0.3, 0.35]},
        "horizon": 15.0},
}
LONG_RUN_DOCS.update({ident: ROUND_TRIP_DOCS[ROUND_TRIP_IDS.index(ident)]
                      for ident in ("bpq_case2", "bpq_case3", "bpq_case5", "bpq_case6")})
LONG_RUN_DOCS["bpq_case4"] = ROUND_TRIP_DOCS[ROUND_TRIP_IDS.index("bpq")]
LONG_RUN_DOCS["game_lifecycle_sir_100"] = dict(
    json.loads((SCENARIOS / "game_lifecycle_sir.json").read_text()), horizon=100.0)


def case1_doc(a, b, c) -> dict:
    return {"model": {"kind": "bpq", "case": "case1", "N": 1000.0, "a": a, "b": b, "c": c},
            "horizon": 20.0}


#: One document per rate shape of bpq case 1: constant rates and the
#: confluent b = a + c (the closed form), a linear inflow, a linear quit rate
#: and a decaying inflow (the integrating-factor route).
LONG_RUN_DOCS.update({
    "bpq_case1_constant": case1_doc(0.5, 0.3, 0.1),
    "bpq_case1_confluent": case1_doc(0.4, 0.5, 0.1),
    "bpq_case1_linear_inflow": case1_doc({"kind": "linear", "a0": 0.2, "a1": 0.05}, 0.3, 0.1),
    "bpq_case1_linear_quit": case1_doc(0.4, {"kind": "linear", "a0": 0.2, "a1": 0.15}, 0.1),
    "bpq_case1_exp_decay_inflow": case1_doc({"kind": "exp_decay", "a0": 0.5, "beta": 0.1},
                                            0.4, 0.05),
})


def feedback_doc(kernel: dict, u0: float, horizon: float) -> dict:
    return {"model": {"kind": "feedback", "kernel": kernel, "T50": 5.0, "u0": u0},
            "horizon": horizon}


LONG_RUN_DOCS.update({
    "feedback_quadratic": feedback_doc({"kind": "quadratic"}, 0.01, 10.0),
    "feedback_inverse_u": feedback_doc({"kind": "inverse_u"}, 0.0, 10.0),
    "feedback_inverse_u_cutoff": feedback_doc(
        {"kind": "inverse_u_cutoff", "u1": 0.8}, 0.05, 10.0),
    "feedback_trend_linear_zero": feedback_doc({"kind": "trend_linear_zero"}, 0.0, 10.0),
    "feedback_power_0.5": feedback_doc({"kind": "power", "n": 0.5}, 0.0, 10.0),
    "feedback_power_1.5": feedback_doc({"kind": "power", "n": 1.5}, 0.01, 20.0),
    "feedback_power_2": feedback_doc({"kind": "power", "n": 2}, 0.01, 10.0),
    "feedback_none": feedback_doc({"kind": "none"}, 0.0, 10.0),
    "feedback_bass": feedback_doc({"kind": "bass", "ratio": 2.0}, 0.0, 10.0),
    "feedback_linear": feedback_doc({"kind": "linear"}, 0.01, 10.0),
    "feedback_sqrt": feedback_doc({"kind": "sqrt"}, 0.0, 10.0),
    "feedback_one_minus_u": feedback_doc({"kind": "one_minus_u"}, 0.0, 10.0),
})

#: The closed forms written as divided differences of two exponentials:
#: absorbing hesitation (also at the exact confluence c = a + b), birth/death,
#: one-way spontaneous churn, whose metrics print supplier 2's peak time, and
#: complementary games (also with a_c = b_c).
COMPLEMENTARY_GAMES = json.loads((SCENARIOS / "complementary_games.json").read_text())
LONG_RUN_DOCS.update({
    "hesitation_absorbing": {"model": {"kind": "hesitation", "a": 1.0, "b": 2.0, "c": 0.5},
                             "horizon": 10.0},
    "hesitation_absorbing_confluent": {"model": {"kind": "hesitation", "a": 1.0, "b": 2.0,
                                                 "c": 3.0}, "horizon": 10.0},
    "birth_death": {"model": {"kind": "birth_death", "a": 1.0, "d": 0.1, "f": 0.2, "g": 0.05},
                    "horizon": 10.0},
    "spontaneous_churn_one_way": {"model": {"kind": "spontaneous_churn", "m": [1.0, 0.8],
                                            "a": [[0.0, 0.0], [0.5, 0.0]]}, "horizon": 25.0},
    "complementary_games": COMPLEMENTARY_GAMES,
    "complementary_confluent": dict(
        COMPLEMENTARY_GAMES, model=dict(COMPLEMENTARY_GAMES["model"], a_c=0.4, b_c=0.4)),
})

#: Periodic churn with several sinusoids per pair: the two-supplier path with
#: three terms in eps12 and one in eps21, and a two-supplier market whose pair
#: (1, 2) carries two modulations, one of them with two terms. Both digests
#: were recorded before the churn modulations were compiled into flat kernels.
LONG_RUN_DOCS.update({
    "periodic_churn_eps12_3": {"model": {
        "kind": "periodic_churn", "a12_0": 0.8, "a21_0": 1.2, "u1_0": 0.2,
        "eps12": [{"amplitude": 0.1, "period": 1.0, "phase": 0.3},
                  {"amplitude": 0.25, "period": 2.7},
                  {"amplitude": 0.05, "period": 0.4, "phase": 1.9}],
        "eps21": [{"amplitude": 0.3, "period": 1.7, "phase": 0.8}]}, "horizon": 15.0},
    "bass_competition_periodic_2_pair": {"model": {
        "kind": "bass_competition", "m": [0.5, 0.2], "r": [0.8, 1.5], "u0": [0.02, 0.05],
        "churn": {"kind": "periodic", "a0": [[0.0, 0.8], [1.2, 0.0]],
                  "eps": [{"i": 0, "j": 1, "terms": [
                              {"amplitude": 0.1, "period": 1.0, "phase": 0.5},
                              {"amplitude": 0.2, "period": 2.3}]},
                          {"i": 1, "j": 0, "terms": [
                              {"amplitude": 0.4, "period": 0.9, "phase": 1.2}]},
                          {"i": 0, "j": 1, "terms": [
                              {"amplitude": 0.3, "period": 3.1, "phase": 2.0}]}]}},
        "horizon": 10.0},
})

LONG_RUN_GOLDEN = {
    ("simulate", "bass_competition_3"):
        "cdf1970cf6e323b9e64544ce92d2ab7e5f19ac91ab60ea8eb62327805e16809d",
    ("metrics", "bass_competition_3"):
        "a7008ea9f35da0c0bb8e29a99e71e4a32b314c7619235ca1bc99f4056d165733",
    ("simulate", "bass_competition_spontaneous_3"):
        "03f0e191efb15015c48403de48ab2d093f5c7f8b34b5acfa249b55325703eee4",
    ("metrics", "bass_competition_spontaneous_3"):
        "eb06e0b2960d00f910040827201f64fca2b1a6a82b7a3520bb74439527f5cf04",
    ("simulate", "spontaneous_churn_5"):
        "ae24d72f7fbf87b432d4dd26858981aa85720ae47d6385312903af924a0bae67",
    ("metrics", "spontaneous_churn_5"):
        "5d78f737f3d03ea85af0a8434e08efb2eab97b85ac36bcef6d50efc9565f0391",
    ("simulate", "bass_competition_stimulated_3"):
        "69410a2050398ebc4a308b733dd960003c4610713146c618ac9ce44493690950",
    ("metrics", "bass_competition_stimulated_3"):
        "0a084d9f0b640d616ab4db697d8db0be3a19e5f596125fee604ffcbd000e1fb3",
    ("equilibrium", "bass_competition_stimulated_3"):
        "68317809831acb9aa76413b491af3b5411aaa998276cf466d75e05e0cb3fe726",
    # Re-pinned for the adaptive integrator: one printed value moved by a
    # rounding tie, u3 at t = 11.011011 (0.303396065 -> 0.303396066; the
    # DOP853 reference is 0.3033960654996, both raw values within 2e-12).
    # Re-pinned when DOP853 replaced the Dormand-Prince 5(4) pair: the same
    # value moved back toward the reference (0.303396066 -> 0.303396065;
    # scipy DOP853 at rtol 2.3e-14 and max_step 0.01 gives 0.3033960654996).
    ("simulate", "bass_competition_periodic_3"):
        "65b1936efa0b7dfddd9011871191ed485a360b4d1cda81d245f3973aa5ca34ee",
    ("metrics", "bass_competition_periodic_3"):
        "8399ff64b84b1f56d7a2679b387161115746ff996eeafe0c1a3c55ef3d3694c3",
    ("simulate", "stimulated_churn_winner_take_all"):
        "3af70bff9a7ef8c13c2c8377add71dbf2a6ce27107f96d8800f9e7b6673264e1",
    ("metrics", "stimulated_churn_winner_take_all"):
        "87061e38c3147b5adb3d4569f5eba79b4546d0d286e3dc9418f8b5458952246e",
    ("equilibrium", "stimulated_churn_winner_take_all"):
        "559b7dec36494d96e601e709647bd2538dedf0fe820cba62b2a7262d4eec6f9d",
    # Re-pinned for the Gauss-Kronrod rule: the output of the
    # game_lifecycle_sir scenario, moved as noted there.
    ("simulate", "bpq_case2"):
        "bb7581b8fe43655a3e8a64c430e882ae434a2a175c3bd116e5441cdf3cc5a9a5",
    ("metrics", "bpq_case2"):
        "d6031be8a30c65b3631897c4aa1f14a3d47bda668ab57a08a1cac296be349d09",
    # Re-pinned for the Newton inversion of t(Q): 2,610 values on 667 lines
    # moved, each toward the mpmath solution at the grid time, e.g. P at
    # t = 18.018018 (8.6979129e-06 -> 1.05312563e-14; reference
    # 1.0531256342e-14) and P at t = 8.228228 (0.00601075673 ->
    # 0.00601075672; reference 0.00601075672495). Re-pinned for the
    # Chebyshev windows of the quit clock: one value moved, toward the
    # 40-digit mpmath solution at the grid time: P at t = 19.2192192
    # (3.80163783e-16 -> 3.80163784e-16; reference 3.8016378350001638e-16).
    ("simulate", "bpq_case4"):
        "25f2a5ed4058c79b3f9f60b3e3a2f3b21538324613af531eedb9e4c76536b525",
    ("metrics", "bpq_case4"):
        "741e1f88eed6672dedf4ed4cb24778d2ac1db060097be594093efc709a40f0a4",
    # Re-pinned for the Newton inversion of t(Q): 2,872 values on 605 lines
    # moved, each toward the mpmath solution at the grid time, e.g. P at
    # t = 100 (8.61619503e-06 -> 4.22970005e-17; reference 4.229700046e-17)
    # and D at t = 35.835836 (1.14789855e-05 -> 1.14789856e-05; reference
    # 1.14789855501e-05).
    ("simulate", "game_lifecycle_sir_100"):
        "3bbcb0c23777bf4dfd81e038397bc6a8cc2e2b04d391541a45aa2f3f4398a4af",
    ("metrics", "game_lifecycle_sir_100"):
        "d6031be8a30c65b3631897c4aa1f14a3d47bda668ab57a08a1cac296be349d09",
    ("simulate", "bpq_case1_constant"):
        "f9164cd7480ae5b9fcd93b1a358f0f60769e2edb4a3d92bb9e942690500c953b",
    ("metrics", "bpq_case1_constant"):
        "757402a3875d1fdf58bed29fbf82c4e23deb9151f85db743ef9d39bb01de5b47",
    ("simulate", "bpq_case1_confluent"):
        "f8c3b484058e84483e1c937ebd4b94073411427684767cd45b322c4aa06839ba",
    ("metrics", "bpq_case1_confluent"):
        "17eaf88f35462cc924fbb2f5fd1d09bfeeeb96f4f296a1bd538b84f446b76baa",
    ("simulate", "bpq_case1_linear_inflow"):
        "1cd2e35c7e9d59463e8c91b176fd4247d9cd13b212fe82f82dc1ad318edc75c7",
    ("metrics", "bpq_case1_linear_inflow"):
        "fa693964e8fdb0890dc099a1323f6db7bf3fb1c771be5a093100672886d6bffc",
    ("simulate", "bpq_case1_linear_quit"):
        "85577ec532504e099efc3800d0d0f3f7987a2edebe841371d2d2750d88695ff8",
    ("metrics", "bpq_case1_linear_quit"):
        "a92bb8a6b68eddd1695988c089c3990cf8c8e0fc9409c21e9b99bb47c17b6fcf",
    ("simulate", "bpq_case1_exp_decay_inflow"):
        "ffd9af30be33361e39eb0d9099364e95dff77d132cd5b0aecfd3f9d42fad4317",
    ("metrics", "bpq_case1_exp_decay_inflow"):
        "f29c5a0dc9f77e52f3516ba6c85da39c8add50a49c40ac849bcb8ee25af28371",
    # Re-pinned when DOP853 replaced the Dormand-Prince 5(4) pair: one
    # printed value moved toward the reference, P at t = 29.2192192
    # (0.251392953 -> 0.251392952; scipy DOP853 at rtol 2.3e-14 and
    # max_step 0.01 gives 0.2513929524998).
    ("simulate", "bpq_case3"):
        "bfd2e164ad0922447270079e9afe1f5dbc4865cdafc39db8f18e9390b6356f31",
    ("metrics", "bpq_case3"):
        "2c1d603ee4e8ccbd39943e35ff6b0018f40440ee302bd3ca8c4bca9410964dad",
    # Re-pinned for the Gauss-Kronrod rule: one printed value moved by a
    # rounding tie, P at t = 21.591592 (0.269332461 -> 0.269332462; the
    # mpmath reference is 0.2693324615000, both raw values within 2e-13).
    # Re-pinned again when P came from z = 1/Q - 1/(P + Q) instead of
    # N - B - Q, and the exponent from its offset to the step's end: three
    # values of P moved, each toward the mpmath solution at the grid time,
    # e.g. at t = 21.591592 (0.269332462 -> 0.269332461; reference
    # 0.269332461499586) and at t = 29.279279 (0.0267712981 -> 0.026771298;
    # reference 0.0267712980498).
    ("simulate", "bpq_case5"):
        "5f5117b7e716b58e6fd4dc571c0b918338930c4627c49716bfe7b9be914c306e",
    ("metrics", "bpq_case5"):
        "b460ee432aaac5d1bb740388d97891a8bf5293abbf88e9a3a37ffe6901398d8c",
    ("simulate", "bpq_case6"):
        "e1769a379a97c46e67d68f9262eff754aa6ac9c978392d275bf6e524b47546c7",
    ("metrics", "bpq_case6"):
        "4396db0b6c2f139b49383323b5a883627ee028904a915a8de4bd52ff88ca9a76",
    # Re-pinned for the Newton inversion, which carries 1 - u at full
    # relative precision: D moved on 99 lines near saturation (t from 5.69
    # to 6.74), each toward the mpmath solution at the grid time, e.g. at
    # t = 5.695696 (3.52286435e-05 -> 3.52286436e-05; reference
    # 3.52286435515e-05) and at t = 6.636637 (1.79967474e-13 ->
    # 1.45175372e-13; reference 1.45175371741e-13). feedback_power_2 prints
    # the same path.
    ("simulate", "feedback_quadratic"):
        "2c7eb7bfae10dd3da47e4650063f2fa96207f3962f74a095bc721696b1cc70d7",
    ("metrics", "feedback_quadratic"):
        "40bb51a13733192b34e4ce7afeb99a50afa5121272906cbb6451e548430718ef",
    ("equilibrium", "feedback_quadratic"):
        "8f619a161bc98dd6fb91a924b7d0fcb7911c704c531275e6121ff157cc6e1a34",
    ("simulate", "feedback_inverse_u"):
        "ab5f71aeaef152bf37af5a367a97b7608fed38b809ba9dabc3aa61c078851ecb",
    ("metrics", "feedback_inverse_u"):
        "82a6b44fd1835623c61fee8f31a47e84d7f3ae2c6de248d5c2ec5fbc99d28155",
    ("equilibrium", "feedback_inverse_u"):
        "0ecd8ae74931dc7dfa4342bcb41d874414905428ec2cb569ad376d9305b556d9",
    ("simulate", "feedback_inverse_u_cutoff"):
        "d9ad51aca3a810481d4aacc07e5ceaad39373c67fec471ce2653e75b5e4fc2d2",
    ("metrics", "feedback_inverse_u_cutoff"):
        "11464b51283ab549d5c981c8cb6f6706c1d8c841335aef3d88b929a4d2f3f52b",
    ("equilibrium", "feedback_inverse_u_cutoff"):
        "b2af65d8801289d7bfd15daa7d6800306845dde76b07b3e8d6ed209b1d8206e7",
    ("simulate", "feedback_trend_linear_zero"):
        "db54977ef7a380a94b0d14d8c65751f8c7dd750607c77d96911e2d5babd191a6",
    ("metrics", "feedback_trend_linear_zero"):
        "e2bd220597e26a4acd5cd892c96055df11095ddd3c0dadbf8624b0bfa0936374",
    ("equilibrium", "feedback_trend_linear_zero"):
        "0ecd8ae74931dc7dfa4342bcb41d874414905428ec2cb569ad376d9305b556d9",
    ("simulate", "feedback_power_0.5"):
        "a6fff86c95018dab90cd77ea5702c747ec271ea33482b097b60b49da4969b590",
    ("metrics", "feedback_power_0.5"):
        "a3052caa92aa70c91f3a22536b458dc0b8c4be72ab8c937d1bf097c1fadcc28f",
    ("equilibrium", "feedback_power_0.5"):
        "02a68015d1510d10690e1db470c2e1b167c8594a5e7f0f2a53fee8b80dedc4f1",
    # Re-pinned for the exact series and the Newton inversion: D moved on
    # 266 lines near saturation (t from 8.13 to 14.35), each toward the
    # mpmath solution at the grid time, e.g. at t = 8.548549 (9.90369106e-06
    # -> 9.90369104e-06; reference 9.90369104264e-06) and at t = 13.893894
    # (1.66388231e-14 -> 1.9858184e-14; reference 1.9858183956e-14).
    ("simulate", "feedback_power_1.5"):
        "f5b250c63f7bc14eb1104912f8a0e16a15966c33ae020a2258327c57e0288a64",
    ("metrics", "feedback_power_1.5"):
        "c0b22ef6e7b557d3625cc647dd4f6917332637736ef62bd2d0234621d48a34e9",
    ("equilibrium", "feedback_power_1.5"):
        "8f619a161bc98dd6fb91a924b7d0fcb7911c704c531275e6121ff157cc6e1a34",
    # Re-pinned with feedback_quadratic, whose path it prints.
    ("simulate", "feedback_power_2"):
        "2c7eb7bfae10dd3da47e4650063f2fa96207f3962f74a095bc721696b1cc70d7",
    ("metrics", "feedback_power_2"):
        "56186ce86527b9356fdb5446ccad2e66ff292a0a235ce8e6b971cf00a5a1edba",
    ("equilibrium", "feedback_power_2"):
        "8f619a161bc98dd6fb91a924b7d0fcb7911c704c531275e6121ff157cc6e1a34",
    # The kernels with a closed-form u(t).
    ("simulate", "feedback_none"):
        "90a752dbc6269f0472d101f88181323a4e30a852a3ef82ee03fedeacb1860420",
    ("metrics", "feedback_none"):
        "2b0448a89ebb45e67b6f0e09ad304acc2ded40a4946d3426da3fc53832c6ba87",
    ("equilibrium", "feedback_none"):
        "0ecd8ae74931dc7dfa4342bcb41d874414905428ec2cb569ad376d9305b556d9",
    ("simulate", "feedback_bass"):
        "35c83c4bfd5d7f975bf05332aa1a5c49bc7700dd1ea0a67e5ffe1dc8e5b2cf4f",
    ("metrics", "feedback_bass"):
        "0fa26ff5bb27514a77bbe6d533c4fe1526f52e84a59fb0863ef82e3a6120d014",
    ("equilibrium", "feedback_bass"):
        "0ecd8ae74931dc7dfa4342bcb41d874414905428ec2cb569ad376d9305b556d9",
    ("simulate", "feedback_linear"):
        "d1fbd15babf9f1a06dd1f2624e14052f718317e16c223fcf7f4c49570f94c887",
    ("metrics", "feedback_linear"):
        "23a6ed231bb43c95805c679daadefaa7fee19031a2f02835ee4c82c4796c6192",
    ("equilibrium", "feedback_linear"):
        "8f619a161bc98dd6fb91a924b7d0fcb7911c704c531275e6121ff157cc6e1a34",
    ("simulate", "feedback_sqrt"):
        "a6fff86c95018dab90cd77ea5702c747ec271ea33482b097b60b49da4969b590",
    ("metrics", "feedback_sqrt"):
        "a3052caa92aa70c91f3a22536b458dc0b8c4be72ab8c937d1bf097c1fadcc28f",
    ("equilibrium", "feedback_sqrt"):
        "02a68015d1510d10690e1db470c2e1b167c8594a5e7f0f2a53fee8b80dedc4f1",
    ("simulate", "feedback_one_minus_u"):
        "60f3f6c12d93b7574b1832cd75c6880220aced95e077684078dec2366936c75c",
    ("metrics", "feedback_one_minus_u"):
        "bc94c22d4935fdf7fa581259ab7564f2b30e730531991249ac8f197bac0d2e6c",
    ("equilibrium", "feedback_one_minus_u"):
        "0ecd8ae74931dc7dfa4342bcb41d874414905428ec2cb569ad376d9305b556d9",
    ("simulate", "hesitation_absorbing"):
        "0c3d3b1fc118ca49a4a876666e01b1808dae2ca63403a4ac70958f764faa5cd4",
    ("metrics", "hesitation_absorbing"):
        "b5e3b25d299ea8732cd1626ac765996454d57a26bc74820410773d22f8582bb7",
    ("simulate", "hesitation_absorbing_confluent"):
        "a5af3139c4e75daf2656c13146450f801c65a4f44e77bcd38c232bfa43c51ed5",
    ("metrics", "hesitation_absorbing_confluent"):
        "c0f2b47be4137433529372ced39f5f243f82523f095abb5da99ca74c23f62b1b",
    ("simulate", "birth_death"):
        "6c317472f795bb7484f90ef60126ecbbd56db06fb6533dc69132f96ac6d92e46",
    ("metrics", "birth_death"):
        "7853c23531ba6b437fecd0e6fc0a272868a2e1373980eedea0ac3066fe66cf72",
    ("simulate", "spontaneous_churn_one_way"):
        "b402361d8e7ecb67338d962cb644dfd761401e30a7b4140517f5cafca84aa966",
    ("metrics", "spontaneous_churn_one_way"):
        "0af207f092550715bed987b019d8eed4e774fee15cb8154d40ab0c3054c5658b",
    # Re-pinned for the Chebyshev windows of the convolution: one value
    # moved, toward the 40-digit mpmath solution at the grid time: P at
    # t = 17.3373373 (1.32320024 -> 1.32320023; reference 1.3232002349988045).
    ("simulate", "complementary_games"):
        "f7e09259bb50c1758db1daa2eafe335146d811945357ef56e96d715ab34bfc91",
    ("metrics", "complementary_games"):
        "72567c609498d3745215507be1c5acb34a6cb27208b268cc709d14c47d837f38",
    ("simulate", "complementary_confluent"):
        "cd508327a94d3b9b597f95955d828ad1f503dfa78b90b5e2a0ad956b34181907",
    ("metrics", "complementary_confluent"):
        "243afd96d8fef0ff6062807468174f107d5aca4ac99909a574e49ccaf965dcf2",
    ("simulate", "periodic_churn_eps12_3"):
        "01e592be17322638504a0f74281db3fae8744ab205229cdccb799ed549561da1",
    ("metrics", "periodic_churn_eps12_3"):
        "6fc39d32cbf8072bc17d2c642a23d9a691fa5d588901038172307bd7c32fae5a",
    ("equilibrium", "periodic_churn_eps12_3"):
        "f0d8be4943299239658f5eec1ba115718081153f96940646d6cbf58e7f735175",
    ("simulate", "bass_competition_periodic_2_pair"):
        "9ddba536a6d690139cdacd2d5d09cfd636c14beef4704a77ddae4a15993c4a60",
    ("metrics", "bass_competition_periodic_2_pair"):
        "788ab19fe0f09128181297d5e0f0a23f262f3296be304829c5aa350411edc57b",
}


@pytest.mark.parametrize("command,ident", sorted(LONG_RUN_GOLDEN),
                         ids=[f"{c}-{i}" for c, i in sorted(LONG_RUN_GOLDEN)])
def test_long_runs_match_golden_digest(command, ident, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(LONG_RUN_DOCS[ident]))
    digest = stdout_digest([command, str(path), "--samples", "1000"], capsys)
    assert digest == LONG_RUN_GOLDEN[(command, ident)]


#: Supplier 3 neither loses nor gains customers by churn, so the coefficient
#: matrix Q of the innovators' path is singular and the path is integrated.
SINGULAR_Q_DOC = {"model": {"kind": "spontaneous_churn", "m": [0.2, 0.1, 0.3],
                            "a": [[0.0, 0.3, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 0.0]]},
                  "horizon": 20.0, "samples": 1000}
# Re-pinned when DOP853 replaced the Dormand-Prince 5(4) pair: one printed
# value moved toward the reference, u2 at t = 16.3963964 (0.187486777 ->
# 0.187486778; the mpmath matrix exponential at 40 digits gives
# 0.187486777500024).
SINGULAR_Q_GOLDEN = "669f18a2598314cb05ea468a1f1376d88b7f3221c17f83804c01923abbd17621"


def test_singular_q_fallback_matches_golden_digest():
    # The digest is of the path rendered as `simulate` renders it; the test
    # below reaches the same bytes through the CLI.
    c = competition.ChurnMatrix.from_rows(SINGULAR_Q_DOC["model"]["a"])
    path = competition.spontaneous_path(tuple(SINGULAR_Q_DOC["model"]["m"]), c,
                                        time_grid(0.0, 20.0, 1000))
    assert path.notes and "singular Q" in path.notes[0]
    digest = hashlib.sha256(scenario.render_csv(path).encode("utf-8")).hexdigest()
    assert digest == SINGULAR_Q_GOLDEN


def test_singular_q_fallback_through_the_cli(tmp_path, capsys):
    # `simulate` computes only the path, so it prints the integrated route.
    # The metric rows and the equilibrium need the churn balance, which is
    # singular too: both exit 3 with nothing on stdout.
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(SINGULAR_Q_DOC))
    assert stdout_digest(["simulate", str(path)], capsys) == SINGULAR_Q_GOLDEN
    for command in ("metrics", "equilibrium"):
        assert cli.main([command, str(path)]) == cli.EXIT_NUMERIC
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "churn balance system is singular" in captured.err


def test_every_kernel_kind_has_long_run_golden_equilibrium():
    kinds = {LONG_RUN_DOCS[i]["model"]["kernel"]["kind"]
             for c, i in LONG_RUN_GOLDEN if c == "equilibrium" and i.startswith("feedback_")}
    assert kinds == set(feedback.KERNEL_KINDS)


#: ``calibrate`` on bpq case 1 at peak time 2, at the confluent rate ratio 1
#: and at ratio 1.5.
CALIBRATE_GOLDEN = {
    1.0: "0dfb9751e56f6ae02949e17165419c923977ccd8ac2bdd8672e91ca554717e66",
    1.5: "bcca2564fe57d4a403a735de30476ec5943c418a62d2dd8bb5f99e201ed94f81",
}


@pytest.mark.parametrize("ratio", sorted(CALIBRATE_GOLDEN))
def test_case1_calibration_matches_golden_digest(ratio, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"model": {"kind": "bpq", "case": "case1"},
                                "targets": {"T_m": 2.0, "ratio": ratio}}))
    assert stdout_digest(["calibrate", str(path)], capsys) == CALIBRATE_GOLDEN[ratio]
