"""The README CLI examples, run in-process, reproduce recorded outputs byte for byte.

Each example runs through ``longrate.cli.main`` in a scratch directory.
``ESTIMATOR_CASES`` add long-rate and stratification runs whose ``%.9g``
and JSON numbers the README examples do not reach; ``REPORT_CASES`` add
the curve and schedule files, the audit JSON reports and the
exponential-law calamity sample they do not write;
``TWO_FACTOR_CASES`` add two-factor valuation, certificate and DIR runs.
Its exit code, the sha256 of its stdout and the sha256 of every file it
writes are compared with recorded digests, so any change to a number,
a header or a detail string shows up here.  Re-record them only for an
intended change of output.
"""

import hashlib

import pytest

from longrate.cli import main

# Any RuntimeWarning (divide by zero, overflow, invalid value) fails a test here.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

EXAMPLES = [
    ("convert", "--T", "10", "--from", "exp", "--to", "libor", "--value", "0.05"),
    ("longrate", "--model", "ref1f", "--t", "0", "--conv", "libor"),
    ("value", "--model", "ref1f", "--flow", "T=10,amount=1"),
    ("curve", "--curve", "flat:0.03", "--probes", "10:10;20:40", "--json", "out.json"),
    ("aggregate", "--mix", '{"kind":"gamma","shape":2,"mean_rate":0.04}',
     "--estimate", "--sample", "10000", "--seed", "11", "--out", "taus.csv"),
    ("simulate", "--model", "ref2f", "--grid", "lin:0:10:21", "--n", "5000", "--seed", "3",
     "--rho", "0.5", "--out", "paths.csv"),
    ("classify", "--curve", "pareto:2:0.04"),
    ("audit", "dir", "--model", "ref1f", "--seed", "7"),
    ("audit", "strat", "--curve", "flat:0.03"),
    ("audit", "kernel", "--model", "ref2f", "--seed", "11", "--n", "100000", "--rho", "0.5"),
    ("audit", "pareto", "--model", "pareto2", "--seed", "5"),
    ("greenbook", "--schedule", "greenbook_example", "--json", "report.json"),
]

# example index -> (exit code, sha256 of stdout, {written file: sha256})
GOLDEN = {
    0: (0, "d996991a51ae965eef98b1bb643c15e25767f51ab62f418b9ae82783ffaac516", {}),
    1: (0, "aeb6e183c39ffd555c68aa619e1a916752a3bdf59470e279b468c6d598f6a81a", {}),
    2: (0, "32d6a21ccae562d080ee6351e405038f9e45d8cbc8b001e415a924f30e966a72", {}),
    3: (0, "84075339929e1a9326f4e0d0f24140cee8b9a7e1f0ea1fa13d9f0dec35c9b728",
        {"out.json": "737d2c29d490c2b1b3d60c1800575d14abcadb1fc3124e9cc71fe7493e045287"}),
    4: (0, "b65a3186416aa9da735c6b4711cd84e66ea1fcb491c0c19eab7064e82971b1f8",
        {"taus.csv": "44fdfc314c7f83fd8e956ddaa93ac90205400352c56e21da90ffec4cf5a2a207"}),
    5: (0, "73551ae501f2c9ab836947e2c68bb39df02dfbe4874de932222c89ee9a231661",
        {"paths.csv": "fe14f421834a72d3c652bfc42a072299e9cd0113595b76fafd1dbca8232442c0"}),
    6: (0, "945d9d3e3bc333db472d143e11b960e452ac983cf8ed7b3c6df3bc1a9985db1c", {}),
    7: (0, "f66afb31cbac6950de558cc00fd2a4f9587269f5625bc20bb9c70caef60f3460", {}),
    8: (0, "8c74a674e4c424937440f14a400cc5fc22e98494f21079187d9bd821b676a4b7", {}),
    9: (0, "1fca74b4504209442f96de9987a74e83fa7057bac03d195e846fcc351b732783", {}),
    10: (0, "515f8156f5dfecd63118f9a4193caa6a7f85c202666d7a08b4ff256f84989612", {}),
    11: (0, "104e24511d8dc593ee354167390d8cc5ab13f7034d9ec3f8b0c54d692acfe007",
         {"report.json": "53b0f2ab38e862e211b4d3682785203d8600d9ee695a7e7629c7720e612d4356"}),
}


ESTIMATOR_CASES = [
    ("longrate", "--model", "pareto2", "--t", "10", "--m", "1.3", "--conv", "pareto:2",
     "--json", "out.json", "--trace", "trace.csv"),
    ("longrate", "--curve", "gamma2", "--t", "25", "--conv", "pareto:2", "--json", "out.json"),
    ("audit", "strat", "--model", "ref2f", "--json", "report.json"),
]

ESTIMATOR_GOLDEN = {
    0: (0, "78a9b16e6bb352aafcd2743b7a8863829ae71f8e41c82d44592527231acd9907",
        {"out.json": "0244a17e5b09d621f674dd1de83c46251798b9d692efbdebc1d9584e7a965da0",
         "trace.csv": "e8899f03842ea92847e5c0c76c0fac3dfdf5d10e084e53369476b667665a044f"}),
    1: (0, "a25e67ee8fb77f4037ff491a83ecb677df11a2f73ebc8e331f45fc1e8e0987d7",
        {"out.json": "a98b71a2001f0202265df21a75acba74bf9f51c21cab4baef92551a0b7ccb5e9"}),
    2: (0, "bcd86b5dc170ad2be5bc9cb7face1f58785b47322ce497407620fcc761ecf9ea",
        {"report.json": "9e9407d0c7fedc9c3b2a4c9ce073dd0677700d165b1d01ba7cceb84d0dd312ce"}),
}


REPORT_CASES = [
    ("greenbook", "--schedule", "greenbook_example", "--spot-rates", "--out", "table.csv",
     "--json", "report.json"),
    ("curve", "--curve", "gamma2", "--out", "c.csv"),
    ("classify", "--curve", "gamma2", "--json", "out.json"),
    ("audit", "dir", "--curve", "hyperbolic2", "--json", "report.json"),
    ("audit", "kernel", "--model", "ref1f", "--seed", "3", "--n", "2000", "--json", "report.json"),
    ("audit", "pareto", "--model", "pareto2", "--seed", "5", "--n", "2000", "--json", "report.json"),
    ("aggregate", "--mix", '{"kind":"exponential","mean_rate":0.02}', "--estimate",
     "--sample", "20000", "--seed", "3", "--out", "taus.csv"),
]

REPORT_GOLDEN = {
    0: (0, "a45e98842f7bd9f71fb7027edf33fb1124c274d766d74014395e251f6fc51967",
        {"report.json": "5c25932182ed6b2e2d20fc5bc2fa540069f0ed778b4c7a1229cb38b4b84979a4",
         "table.csv": "598b48a69c24480f05f71c99f1f748c4f59a1e7fa900de045ddad5bfbd585ab3"}),
    1: (0, "8d763b62531d721ef68e12f5778b67caf3bca74b0b17953007ca7b6bd7807afe",
        {"c.csv": "b8e0e1f29c1dab7aff267fe53b6d68c4018129eca01a3072288e5e0e6d7f0fbd"}),
    2: (0, "7ca4441b5bd2ce3f667273fb1aec5d6ee932de15230bed402f0ce1805de288d5",
        {"out.json": "945d9d3e3bc333db472d143e11b960e452ac983cf8ed7b3c6df3bc1a9985db1c"}),
    3: (0, "b2cc61f9d7e52b66bab722f8267a35d1cbe0669fc6d3e6adb2495ca20970e731",
        {"report.json": "bdfb709e8e8d344c51f660a524eeb591d42fe38c313bb319f3edaac17f2f9b56"}),
    4: (0, "f1a09e404668eaf233d5271f9a947d2073ea7b45c815cc939f1cfea156787731",
        {"report.json": "2e8eaa34298848d6827e8ae632a63116fd53b5d7d7b51f350b8ee137567b6a24"}),
    5: (0, "7125a372819d4f150b87a8923c067245e8724e66665545370dacd95befebf393",
        {"report.json": "6f513e6aa237024c66f385719348061e75114ff8f43b59494ce7ea8165cb2ba6"}),
    6: (0, "51ba1beaa9b2bb6722008c9e937362a82019057684ad70d33803afcd26dfc7d7",
        {"taus.csv": "3fad334922749e64d4ad57c0407e020a862830e9f7866f43e0062c9a98de582d"}),
}


TWO_FACTOR_CASES = [
    ("value", "--model", "ref2f", "--m", "1.2", "--n", "0.8", "--flow", "T=5,payoff=N",
     "--flow", "T=2,amount=1", "--simulate-constants", "--seed", "9", "--paths", "5000",
     "--rho", "0.5", "--json", "out.json"),
    ("audit", "pareto", "--model", "ref2f", "--seed", "4", "--n", "5000", "--rho", "0.5",
     "--json", "report.json"),
    ("audit", "dir", "--model", "ref2f", "--seed", "7", "--rho", "-0.3", "--json", "report.json"),
]

TWO_FACTOR_GOLDEN = {
    0: (0, "c877daa787733dde524c1f4f15e15642a3d6b046e800018b9fe014732aa4c0fc",
        {"out.json": "eee011169c70f69d0e0633bd678bd79ecd029a0d5bb4389abc4935ba413210e9"}),
    1: (0, "e737e6d4df2de9effeba227a2e12d472991891c1a6626503826359d22b1da7d8",
        {"report.json": "8df94fb1490f3bae58d0ac42dc536455ccee4478cb39787f3a3034fea2765f87"}),
    2: (0, "23a70d3e5a1a88a6e932d9528cc1f233e68fa4025163e28276fc02b017f80530",
        {"report.json": "bda407170c0bff5a4fa91e3717035cd1a949446733105ac72654fe9f8f9ba48e"}),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_example(argv, workdir, capsys):
    """Run one example in ``workdir``; return (exit code, stdout digest, file digests)."""
    before = {p.name for p in workdir.iterdir()}
    code = main(list(argv))
    out = capsys.readouterr().out
    files = {
        p.name: _sha(p.read_bytes())
        for p in sorted(workdir.iterdir())
        if p.name not in before
    }
    return code, _sha(out.encode("utf-8")), files


@pytest.mark.parametrize("index", range(len(EXAMPLES)))
def test_readme_example_is_byte_identical(index, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("LONGRATE_THREADS", raising=False)
    assert run_example(EXAMPLES[index], tmp_path, capsys) == GOLDEN[index]


@pytest.mark.parametrize("index", range(len(ESTIMATOR_CASES)))
def test_estimator_output_is_byte_identical(index, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("LONGRATE_THREADS", raising=False)
    assert run_example(ESTIMATOR_CASES[index], tmp_path, capsys) == ESTIMATOR_GOLDEN[index]


@pytest.mark.parametrize("index", range(len(REPORT_CASES)))
def test_report_output_is_byte_identical(index, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("LONGRATE_THREADS", raising=False)
    assert run_example(REPORT_CASES[index], tmp_path, capsys) == REPORT_GOLDEN[index]


@pytest.mark.parametrize("index", range(len(TWO_FACTOR_CASES)))
def test_two_factor_output_is_byte_identical(index, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("LONGRATE_THREADS", raising=False)
    assert run_example(TWO_FACTOR_CASES[index], tmp_path, capsys) == TWO_FACTOR_GOLDEN[index]
