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
            "35201dfb5bb173a9a5ff5f20850a3f771133a588ce3510d9854d500687f59264",
        "figdata_network_after.csv":
            "94acf9b98b62ea53194d72bb4ee60aaa506de9d11bcb13003844c6dcd83a2e52",
        "figdata_network_before.csv":
            "4cbefb1588dcd8e745ab059247905ba4d65adb4af83839d7b85ced07c3a29230",
        "measures.csv":
            "386f703389a6980adb389913f0f6006fe31fd97e5dbf1dfbfcba8d8409066e23",
        "report.json":
            "f58112cd70bc5de4e8b5df16ce125f7e4d78d23d532633a57af89438984f8991",
        "weights.csv":
            "9453c62d5cbbca97a75fb0f630c577162fcbd17284681d9114ccd87a05236192",
    }),
    (["design", "--case", NY57, "--mode", "minmax", "--nodes", "generators"], {
        "stdout":
            "0f5965b440fbbf3a1264173c8aa143cfb0bd18d2955e39500875745fc2fea2cd",
        "figdata_bars.csv":
            "741cb2609c682e475b08d4acfe7ec3537b32afd451128562f458c7dc654430c6",
        "figdata_network_after.csv":
            "62ebc15cc2b14b72ae6e510c60a971d58f14e0930d32bf8288e70c20e54edfa1",
        "figdata_network_before.csv":
            "4cbefb1588dcd8e745ab059247905ba4d65adb4af83839d7b85ced07c3a29230",
        "measures.csv":
            "4a442f18aa2d4fe405e31f98d7fb9b6496f0f26815b1980e9f3d0386bdba95e7",
        "report.json":
            "b399401c8e3dd24100b1785c9f8a9e37b9223535562e476e2584590bc1255b10",
        "weights.csv":
            "1eaf724292233916ab8dfa7fc4efeb5f4fff6cc7ea1c986d5bf2f7239ae4cfe3",
    }),
    (["design", "--case", NY57, "--mode", "minmax", "--nodes", "4,6",
      "--epsilon", "5.05"], {
        "stdout":
            "c091dd3d257eecbf36f01231e050f014a0b36bceb0499525b5234cf40e26434e",
        "figdata_bars.csv":
            "9a3ed4a522104d24208ab967122ca1e721b10d93815c97039d2d08ff4ede61c3",
        "figdata_network_after.csv":
            "9c1f46a51814e6587adcf2c57d9306127008d31089ad3750244dcdcb3e2624eb",
        "figdata_network_before.csv":
            "4cbefb1588dcd8e745ab059247905ba4d65adb4af83839d7b85ced07c3a29230",
        "measures.csv":
            "c732750f2ae2b3bc59a6a3f46dac4d45d182a2c34c32858aab7bd5c371c73c7d",
        "report.json":
            "f17c323f88556d27033ca937af089da4fe22d30b73e491bb259c936086522ef6",
        "weights.csv":
            "88f1b837b321ae1a20bbc3af53f81d9dbc67813478972a8fdfcbb033c2451786",
    }),
    (["design", "--case", K5, "--mode", "single", "--nodes", "all"], {
        "stdout":
            "db6a1841a6913d78b5ca5a66dfdce31c3528de18b1c87e682b9ee16e9651dd5c",
        "figdata_bars.csv":
            "5ab114f8026c0b197cb46fdef878321f3baca3f3bf3a18ca16604ec967f255c7",
        "figdata_network_after.csv":
            "9087c1baae45ce8694fa07a845a0b3c59d1f7a71d4f75009b7d8f90277521251",
        "figdata_network_before.csv":
            "85b883c32552d3c630ba9e9cdfe11989ff3f18e2297ac2b84073f1fddaf2f35e",
        "measures.csv":
            "2845986497c1af182cea84030285f7c6aaae9e85c7a208e9a90ec24fcb28463f",
        "report.json":
            "4322c2b0affb803b8a921e9c05a946a323a04237e9824c15cf1de16fea98fbc7",
        "weights.csv":
            "8c840cd7e7523270056ebcdf3ab0a4e392198d0baa47c593ae8165b11da9f448",
    }),
    (["design", "--case", K5, "--mode", "minmax", "--nodes", "all"], {
        "stdout":
            "0f534b9235a5f30b425700618df08168e99ef16d3832f5b0a030d6b8424e1d20",
        "figdata_bars.csv":
            "e4ce57f1f50e2a18a4b66d56d56252d055638ea96f867bdc9959d6225b877479",
        "figdata_network_after.csv":
            "9818128f30ed423f8384cf02564f7e2d20b4a1a831df755393159b52e872c969",
        "figdata_network_before.csv":
            "85b883c32552d3c630ba9e9cdfe11989ff3f18e2297ac2b84073f1fddaf2f35e",
        "measures.csv":
            "9430adef1baa04c2afc7b344cd433f4694ce81cdc8eba45448eac4bc88be7979",
        "report.json":
            "77a83d18661c99cb8c8f95d26f7830aa2470ae92dd4b287b35713f5eddf33df1",
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
