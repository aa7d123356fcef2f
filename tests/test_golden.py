"""Golden outputs: sha256 digests of small sweeps' CSVs and of run traces.

Refactors must keep these bytes: sweep cells, averages and profile CSVs,
a sweep's JSON, the Rosenbrock table's CSV and text, the profile of a
cost-matrix CSV, and the JSON of raw BB, gbb-quadratic (the benchmark's
n = 1 000 quadratic among them) and Rosenbrock traces.  The digests
were recorded with numpy 2.4.6 on Python 3.11.7 (x86-64); another numpy
or libm may round some runs differently, so a mismatch on another
platform is a question to check, not proof of a regression.
"""

import hashlib

import pytest

from stlsbb import harness, kernels, quadratic, solver
from stlsbb.steps import parse_policy

POLICIES = ("bb1", "bb2", "gamma:1", "gamma:20", "gammaPrime:1", "tau:0.5", "atc:3")


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _sweep_outputs(grid, profile=True, json=False):
    cells = harness.run_quadratic_sweep(grid)
    out = {
        "cells": harness.sweep_to_csv(cells),
        "averages": harness.averages_to_csv(harness.average_table(cells)),
    }
    if profile:
        out["profile"] = harness.profile_from_cells(cells).to_csv()
    if json:
        out["json"] = harness.sweep_to_json(cells)
    return out


# what `stlsbb profile --costs` reads: a comment, failures spelt every
# accepted way, and a row whose only finite cost ties two solvers
COST_MATRIX = """# iterations per problem
problem,bb1,bb2,gamma:1
p0,10,12,fail
p1,inf,30,20
p2,5,,5
p3,7,--,NaN
p4,40,25.5,50
"""


def golden_outputs():
    """Every pinned output as {name: text}."""
    out = {}
    # n = 30: 96-row calls spanning several (setting, kappa, epsilon) groups
    grid = harness.ExperimentGrid(n=30, setting_ids=(1, 2), kappas=(1e3, 1e4),
                                  epsilons=(1e-4, 1e-8), seeds=(0, 1, 2),
                                  policies=POLICIES, max_iter=2000)
    out.update({f"sweep30-{k}": v for k, v in _sweep_outputs(grid, json=True).items()})
    # n = 2000: 16-row calls, the second one starting inside a group
    grid = harness.ExperimentGrid(n=2000, kappas=(1e3,), epsilons=(1e-4, 1e-6),
                                  seeds=(0, 1, 2),
                                  policies=("bb1", "gamma:1", "atc:3"), max_iter=3000)
    out.update({f"sweep2000-{k}": v for k, v in _sweep_outputs(grid).items()})
    # recipe 2 with kappa <= 200 fails to build: error markers between runs
    grid = harness.ExperimentGrid(n=20, setting_ids=(1, 2), kappas=(1e2, 1e4),
                                  seeds=(0, 1), policies=("bb1", "gamma:20"))
    out.update({f"sweep-errors-{k}": v
                for k, v in _sweep_outputs(grid, profile=False).items()})
    # 5-row blocks at n = 30 whose rows end as ok, cap and nonfinite
    # (kappa = 1e300), between error markers (setting 2 at kappa = 100)
    grid = harness.ExperimentGrid(n=30, setting_ids=(1, 2), kappas=(100.0, 1e4, 1e300),
                                  epsilons=(1e-6, 1e-3), seeds=(0, 1),
                                  policies=("bb1", "atc:3", "gamma:20"), max_iter=60)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_BLOCK_DOUBLES", 5 * 30)
        out.update({f"sweep-width5-{k}": v
                    for k, v in _sweep_outputs(grid, profile=False).items()})

    out["costs-profile"] = harness.profile_from_matrix_csv(COST_MATRIX).to_csv()
    table = harness.run_rosenbrock_table()
    out["rosenbrock-table-csv"] = table.to_csv()
    out["rosenbrock-table-render"] = table.render()

    inst = quadratic.generate_instance(100, quadratic.SpectrumSetting(3, 1e4), 5)
    for pol in POLICIES:
        tr = quadratic.solve_bb(inst, parse_policy(pol), 1e-6, 5000)
        out[f"raw-{pol}"] = tr.to_json()
    bb1 = parse_policy("bb1")
    out["raw-cap"] = quadratic.solve_bb(inst, bb1, 1e-9, 40, alpha0=0.5).to_json()
    out["raw-nonfinite"] = quadratic.solve_bb(inst, bb1, 1e-6, 50, alpha0=1e300).to_json()

    obj = quadratic.as_objective(
        quadratic.generate_instance(200, quadratic.SpectrumSetting(1, 1e3), 2))
    for eta in (1e-3, 1e-10):
        config = solver.SolverConfig(epsilon=1e-6, stop_rule=solver.STOP_GRAD_REL,
                                     max_iter=600, eta=eta)
        for pol in ("bb1", "bb2", "gamma:1", "atc:3"):
            tr = solver.run(obj, obj.x0, config, parse_policy(pol))
            out[f"gbb-quad-{eta:g}-{pol}"] = tr.to_json()
    # the benchmark's n = 1 000 quadratic in a wide band, where the bound
    # reads g'Ag from three reflections and a round after a skip by the
    # bound evaluates one row first
    obj1000 = quadratic.as_objective(
        quadratic.generate_instance(1000, quadratic.SpectrumSetting(1, 1e4), 0))
    config = solver.SolverConfig(epsilon=1e-6, stop_rule=solver.STOP_GRAD_REL,
                                 max_iter=2000, eta=1e-10)
    for pol in ("bb1", "bb2", "gamma:20"):
        tr = solver.run(obj1000, obj1000.x0, config, parse_policy(pol))
        out[f"gbb-quad1000-1e-10-{pol}"] = tr.to_json()

    ros = solver.rosenbrock2()
    config = solver.SolverConfig(epsilon=1e-4, alpha0=1.0, eta=1e-5,
                                 stop_rule=solver.STOP_POINT_DIST, target=[1.0, 1.0])
    for pol in ("bb1", "bb2", "gamma:1", "gamma:1.5", "tau:0.5"):
        out[f"rosenbrock-{pol}"] = solver.run(ros, ros.x0, config, parse_policy(pol)).to_json()
    # the probe opening steplength and the gradient stop rule
    config = solver.SolverConfig(epsilon=1e-6, max_iter=300)
    out["rosenbrock-probe"] = solver.run(ros, ros.x0, config, parse_policy("gamma:1")).to_json()
    # an objective without eval_rows backtracks in rounds of one
    plain = solver.Objective("plain", 2, ros.eval, x0=ros.x0)
    out["rosenbrock-plain"] = solver.run(plain, plain.x0, config, parse_policy("bb2")).to_json()
    # the nonmonotone window at its edges: the latest f alone, the last
    # two, and longer than the run
    for memory in (0, 1, 5000):
        config = solver.SolverConfig(epsilon=1e-6, max_iter=500, memory=memory)
        out[f"gbb-memory{memory}-rosenbrock"] = solver.run(
            ros, ros.x0, config, parse_policy("bb2")).to_json()
        config = solver.SolverConfig(epsilon=1e-6, stop_rule=solver.STOP_GRAD_REL,
                                     max_iter=600, memory=memory)
        out[f"gbb-memory{memory}-quad"] = solver.run(
            obj, obj.x0, config, parse_policy("bb1")).to_json()
    return out


GOLDEN = {
    "costs-profile": "9a3f772dda5af01f0d36f56b223b29e9fbd52533398652e6c604cf2959639b24",
    "gbb-memory0-quad": "8d1f8b53355a439acccf3cc4c2d3fad021a4087ed75ca3dc6df6f66b5e5af85d",
    "gbb-memory0-rosenbrock": "e511900af13c65a7933ad77e16e8b36d10101a6a19df239a28a8d9f6bd7970d5",
    "gbb-memory1-quad": "3c115af3f99d8a245fba2e7de16b8156376d77411b5690cf7d91ce779281c505",
    "gbb-memory1-rosenbrock": "3985cc5c775bbbaf4c21d7433137f9500e3f13563f93431201ebe79f67fd3425",
    "gbb-memory5000-quad": "fab87a647a3d8580e81909edb1024f95cb1e1f95ae6145bcce14857d534b0493",
    "gbb-memory5000-rosenbrock": "8dd33204b7c280cd0fe2dd27a4ab536fd2982d71dad02714e201b1777409b251",
    "gbb-quad-0.001-atc:3": "56fb634cbbad61de60815698a5c16034e0b0b089592952d90a303d39e8509b10",
    "gbb-quad-0.001-bb1": "1e54abb0a56638a63006229bcb8eb32c887b1b66c8b9187caa87f36d5b649a72",
    "gbb-quad-0.001-bb2": "a3175ebf02b7d724ea114fc51b129259c8bad763e86cc3d7a248d19fca25674d",
    "gbb-quad-0.001-gamma:1": "f18255caffc5700d64a886f3ffe8c343d3bd3367e84197332f1c7ec48fa5d62a",
    "gbb-quad-1e-10-atc:3": "de2dca1516a09c3dbc7da1708c05c6ec9ddbe7d730c0cb8c7851f450c8071e37",
    "gbb-quad-1e-10-bb1": "69233b28d5198fa7052e09335256da2ef29e97e781229494d0e3773e0c9f65f7",
    "gbb-quad-1e-10-bb2": "972830acb7224cbb1a32400d66dd0fa01f3e52f4c81b6344b6fc419c6fc56528",
    "gbb-quad-1e-10-gamma:1": "0fc11edcb5366d3eb8b775f323e63456e7b433d5e1f44b0884826976bd93b067",
    "gbb-quad1000-1e-10-bb1": "026483b93b46c095ecabff23c4d7dfe87956e268ba986305802dea49a6a57171",
    "gbb-quad1000-1e-10-bb2": "315110dc9b537de6c35fc2309a23ff59bcab5aa370feb4c7ef43729c6ec75bb2",
    "gbb-quad1000-1e-10-gamma:20": "7168d098dfe90942e2c283ff44e43cf670be41d69647decb68a0fecfa49c95e3",
    "raw-atc:3": "72a664d3eba72c1c4114324a8a8f3929af9e8a3ad12222a92c80be0547508271",
    "raw-bb1": "9ef3172a9317046e75b06a4c7baf9d0b059bd10f0b414d1123b0650f4e7c7165",
    "raw-bb2": "f8da0b9147b622172cf0f1c82a388a04d8556c69061af2f419cb8c82ecf4ea48",
    "raw-cap": "e1e70789575d5bdbdd758a6d8c6541f974ba1da95363ce86ead99766bc1bb472",
    "raw-gamma:1": "4bb8679c7a2ce0b25161769bf26837d31300e89e73d7f5a27fce2055c424f5cb",
    "raw-gamma:20": "7c686e38dc182ac682f6b5a1ac69590cc41a9adaadee1fd73c512ba7351214b5",
    "raw-gammaPrime:1": "f45bd524848afb131c91fcf8d8ee29f566c5d654e9fae9ea293bbdae5b07b715",
    "raw-nonfinite": "3135ec08d42e32e60287281d41a4dafc55661b0caaf903249bda73aa29d3dd39",
    "raw-tau:0.5": "78cd791c870fc6a7eb86f081c8e31d60ce38ff25f8362c79a6efefe0006e6eb9",
    "rosenbrock-bb1": "02626eb528468e95f609e1cb53ca01e7a685fdcb97140e0f056b73cdffef4692",
    "rosenbrock-bb2": "7af02531917c892a430b7829b60ecf601e755eff8b7a14dd6a97d36374b07f6c",
    "rosenbrock-gamma:1": "0e92b7be3617132f3405c85eb201e13bbc13e668af3cf2f5d4795a3b6a373edc",
    "rosenbrock-gamma:1.5": "b02006a6ec7bafa91768be7466adba4febe6cc06e0f956f56bd0c17bfe4b4439",
    "rosenbrock-plain": "b671631d998c48b9d60cf09289693fffd39548dddc964f6f5e68877e68984877",
    "rosenbrock-probe": "859093e7f3a083b1116f43b722d4195af36ed49d5f759408528f04f2c7fbc6a9",
    "rosenbrock-table-csv": "c7d772d59fbe243502e54e83e336e2a6b5945a457c6e2fe93579bb99ae785c2d",
    "rosenbrock-table-render": "4979308bdd9d61126fee0caa665d67704d4cc2d1659defbea5f682b54dc25ed7",
    "rosenbrock-tau:0.5": "c2ead4bc8cc3ce24c145bce307f2bbcfea726240d386d7ae2f5bf2797425633e",
    "sweep-errors-averages": "52b12f7a7014b79066f91d653ddce1b2db49677acd7c7baabc13447ee452350f",
    "sweep-errors-cells": "9e078f415203dd58e1a06022ea23571679377cfe8041d0deccd475452049c5ca",
    "sweep-width5-averages": "7bb5815d9d1cbba79582c001bc05c2cabd4cfd4fbbe948708578f856d855b766",
    "sweep-width5-cells": "d496183e8142c4b1dc4185b08dc065072b76eb507c94dab07e06e07901fb49cc",
    "sweep2000-averages": "539861e9bb617f0956890255d619a81f9e23a94a89410d8b36e21a2e56960292",
    "sweep2000-cells": "b1dab1b8a0303d07e76fffb42f3ef5f9b563e7c4b384dd60037443e38f259cdb",
    "sweep2000-profile": "235b36cfc858e44637742f51dd1113d0dd1c6d9c216ccd057241640db926192a",
    "sweep30-averages": "298377f2d96d69165b6f27e46f07b39ca32f5f0b6408bd79d0eafd57fe2fc427",
    "sweep30-cells": "e8d68947308424a5b46e332838adeebcfd3390a37a7e8b49522213288c50b320",
    "sweep30-json": "9026a06dd99eab1bad47e86d1b7036f8be3e91262dad82578756010fd76c5c6f",
    "sweep30-profile": "482832afdb2d38e58557689ec81d2ba6633585e5d7186c3cb36f2a51fa82f1c9",
}


@pytest.fixture(scope="module")
def digests():
    return {name: _digest(text) for name, text in golden_outputs().items()}


def test_every_output_is_pinned(digests):
    assert sorted(digests) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_matches_its_golden_digest(digests, name):
    assert digests[name] == GOLDEN[name]
