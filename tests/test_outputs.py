"""Outputs pinned byte for byte: stdout and every written file of CLI runs.

A change that alters one of these outputs on purpose updates its pin and
says so in CHANGES.md. Output paths in stdout are replaced by ``<out>``, so
the pins do not depend on where the test writes.
"""
import hashlib
from pathlib import Path

import pytest

from resilnet.cli import main

CASES_DIR = Path(__file__).resolve().parents[1] / "cases"
K5 = str(CASES_DIR / "k5_toy.json")
NY57 = str(CASES_DIR / "ny57_substitute.json")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digests(argv: list[str], out: Path, capsys) -> dict[str, str]:
    """sha256 of the normalized stdout and of every file the run wrote to ``out``."""
    assert main(argv) == 0
    digests = {"stdout": _sha256(capsys.readouterr().out.replace(str(out), "<out>").encode())}
    if out.exists():
        digests.update((p.name, _sha256(p.read_bytes())) for p in sorted(out.iterdir()))
    return digests


@pytest.mark.parametrize("argv, pins", [
    (["measure", "--case", NY57], {
        "stdout":
            "356349c01f1bfff4fa1ca8ccfd128807c49f6baa27fedda6e83d757784200a27",
    }),
    (["design", "--case", NY57, "--mode", "single", "--nodes", "generators"], {
        "stdout":
            "3b368da09eeda5ec1290ccfa02189b5b3ebc30cab90a1987c38d5a2b4d59bb7a",
        "figdata_bars.csv":
            "ce53b96652742956d784b6eb147128e2be7a6754c29438dde6cbc86adea898c2",
        "figdata_network_after.csv":
            "94acf9b98b62ea53194d72bb4ee60aaa506de9d11bcb13003844c6dcd83a2e52",
        "figdata_network_before.csv":
            "4cbefb1588dcd8e745ab059247905ba4d65adb4af83839d7b85ced07c3a29230",
        "measures.csv":
            "548fb8ef611b0c09867ed10e71d047053ea63d6c0358acd0c91cc48231976f08",
        "report.json":
            "9183d14a11165253fa06290a281d286c69faa0f890277b011583e80ce7d5da01",
        "weights.csv":
            "9453c62d5cbbca97a75fb0f630c577162fcbd17284681d9114ccd87a05236192",
    }),
    (["design", "--case", NY57, "--mode", "minmax", "--nodes", "generators"], {
        "stdout":
            "0f5965b440fbbf3a1264173c8aa143cfb0bd18d2955e39500875745fc2fea2cd",
        "figdata_bars.csv":
            "4746f20db9ac18faea0db62ed3d2ec46768a0b1289f3a556dabd4eaccf9d3108",
        "figdata_network_after.csv":
            "62ebc15cc2b14b72ae6e510c60a971d58f14e0930d32bf8288e70c20e54edfa1",
        "figdata_network_before.csv":
            "4cbefb1588dcd8e745ab059247905ba4d65adb4af83839d7b85ced07c3a29230",
        "measures.csv":
            "9f1758dfdc863d44c6f3853b2e7c44ac622f96b33931f5e7bd2fc3dd6771ed21",
        "report.json":
            "7c517f86697742bb4b211276e9017041481cb1922dffe5f127b04160e48c3466",
        "weights.csv":
            "1eaf724292233916ab8dfa7fc4efeb5f4fff6cc7ea1c986d5bf2f7239ae4cfe3",
    }),
    (["design", "--case", NY57, "--mode", "minmax", "--nodes", "4,6",
      "--epsilon", "5.05"], {
        "stdout":
            "c091dd3d257eecbf36f01231e050f014a0b36bceb0499525b5234cf40e26434e",
        "figdata_bars.csv":
            "6e10a5c6b79ed827710dbce27410d1410e7a16c212153cfbdc1247c7507eeae3",
        "figdata_network_after.csv":
            "9c1f46a51814e6587adcf2c57d9306127008d31089ad3750244dcdcb3e2624eb",
        "figdata_network_before.csv":
            "4cbefb1588dcd8e745ab059247905ba4d65adb4af83839d7b85ced07c3a29230",
        "measures.csv":
            "be482807703e16a34eaa1418b2707d4d4af660f2a4e5a63d9a40fc1deacdcaba",
        "report.json":
            "c2db2fa446b8f6567d1b765dc5266b45c7e3eba2a2ebb6e2d2674b9c92493ca9",
        "weights.csv":
            "88f1b837b321ae1a20bbc3af53f81d9dbc67813478972a8fdfcbb033c2451786",
    }),
    (["design", "--case", K5, "--mode", "single", "--nodes", "all"], {
        "stdout":
            "db6a1841a6913d78b5ca5a66dfdce31c3528de18b1c87e682b9ee16e9651dd5c",
        "figdata_bars.csv":
            "4cd93f7fa250481199166cf5eead9669f09b9485ffec20d2b91de415c80c8efc",
        "figdata_network_after.csv":
            "9087c1baae45ce8694fa07a845a0b3c59d1f7a71d4f75009b7d8f90277521251",
        "figdata_network_before.csv":
            "85b883c32552d3c630ba9e9cdfe11989ff3f18e2297ac2b84073f1fddaf2f35e",
        "measures.csv":
            "d93c534c649e47febe8bcde22054e4b45318052d4023490883b69e8d594804f8",
        "report.json":
            "888d52e9bc7111d1aec438c5f8820a9f977ad02b7cf10678672d6d68a9ab6444",
        "weights.csv":
            "8c840cd7e7523270056ebcdf3ab0a4e392198d0baa47c593ae8165b11da9f448",
    }),
    (["design", "--case", K5, "--mode", "minmax", "--nodes", "all"], {
        "stdout":
            "0f534b9235a5f30b425700618df08168e99ef16d3832f5b0a030d6b8424e1d20",
        "figdata_bars.csv":
            "054dde74e2d3b088365991eba90eae5b012ad654aa24f0c89a9c69464dabfaf0",
        "figdata_network_after.csv":
            "9818128f30ed423f8384cf02564f7e2d20b4a1a831df755393159b52e872c969",
        "figdata_network_before.csv":
            "85b883c32552d3c630ba9e9cdfe11989ff3f18e2297ac2b84073f1fddaf2f35e",
        "measures.csv":
            "aab731af4f81bca66c881e21b2ab2aa299b0777d3be0e999053895cd5c79ab6b",
        "report.json":
            "5e14c28cdb6ec0eb9c6c4865a180f539e41f8b932196943726929334aa789e3f",
        "weights.csv":
            "09e9daf80759c33b862c2a27cb8fd3a8bdb3d755de1bfe2cffe6b71657019261",
    }),
], ids=["ny57-measure", "ny57-single", "ny57-minmax", "ny57-minmax-4,6-eps5.05",
        "k5-single", "k5-minmax"])
def test_cli_outputs_are_pinned(tmp_path, capsys, argv, pins):
    out = tmp_path / "out"
    if argv[0] == "design":
        argv = argv + ["--out", str(out)]
    assert _digests(argv, out, capsys) == pins


def test_k5_minmax_box_simulation_is_pinned(tmp_path, capsys):
    design = tmp_path / "design"
    assert main(["design", "--case", K5, "--mode", "minmax", "--nodes", "all",
                 "--out", str(design)]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    argv = ["simulate", "--case", K5, "--weights", str(design / "weights.csv"),
            "--noise", "box", "--node", "1", "--out", str(out)]
    assert _digests(argv, out, capsys) == {
        "stdout":
            "216c44af84e27ba0aefef3ab1e28b489c826d7b42bc40a6b6fa8523b392224a7",
        "trajectories.csv":
            "9ef0110c8b78bd4ce070a62120e178fa7f4ac0351efbe1472c6ee834df132ee6",
    }


def test_k5_ou_simulation_is_pinned(tmp_path, capsys, monkeypatch):
    import resilnet.cli as cli
    monkeypatch.setattr(cli, "DEFAULT_T", 20.0)
    monkeypatch.setattr(cli, "DEFAULT_R", 8)
    design = tmp_path / "design"
    assert main(["design", "--case", K5, "--mode", "minmax", "--nodes", "all",
                 "--out", str(design)]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    argv = ["simulate", "--case", K5, "--weights", str(design / "weights.csv"),
            "--noise", "ou", "--node", "1", "--out", str(out)]
    assert _digests(argv, out, capsys) == {
        "stdout":
            "c7a28520984572cc13a2dd196b4dd89cfff5b1baa5411b35defac7609be27671",
        "trajectories.csv":
            "9ec50221a1e4b99e13d4265c46f3a7bd184ec7af95cfea32e6083f9f4c9235ba",
    }
