"""Golden output digests: seeded runs must reproduce these files byte for byte.

Each case runs one CLI subcommand on a fixed config and compares the
SHA-256 of every file it writes with a recorded value. A refactor that
moves a single float bit in any CSV or JSON output fails here, which a
rerun-and-compare test of the same code cannot catch.

To re-record after a deliberate output change, run
``PYTHONPATH=src python tests/test_golden.py`` and paste the printed table
into ``GOLDEN``; say in CHANGES.md why the outputs moved.
"""

import pytest

from fedmarket.cli import main
from fedmarket.manifest import file_digest

ONE_CELL = """
federation_sizes: [25]
targets: [125.0]
freerider_sizes: [50]
delta_thresholds: [1.0]
replications: 2
"""

# A paying deal small enough for the pruned evaluator to split the prize.
SMALL_PAYING = """
master_seed: 313
federation_sizes: [10]
budget: 500.0
"""

# At delta = 0.01 the penalty empties all but one federation, which
# exercises the inactive-federation break; at delta = 50 nobody is flagged.
FREERIDER_EDGES = """
freerider_sizes: [6]
delta_thresholds: [0.01, 50.0]
replications: 3
"""

# case -> (subcommand, config text or None for the defaults, extra CLI flags)
CASES = {
    "simulate-default": ("simulate", None, []),
    "exp-rounds-one-cell": ("exp-rounds", ONE_CELL, []),
    "exp-freeriders-one-cell": ("exp-freeriders", ONE_CELL, []),
    "exp-freeriders-edges": ("exp-freeriders", FREERIDER_EDGES, []),
    "exp-rounds-one-cell-krr": ("exp-rounds", ONE_CELL, ["--mode", "krr"]),
    "exp-rounds-one-cell-example": ("exp-rounds", ONE_CELL, ["--mode", "example"]),
    "simulate-small-additive": ("simulate", SMALL_PAYING, []),
    "simulate-small-krr": ("simulate", SMALL_PAYING, ["--mode", "krr"]),
    "simulate-small-example": ("simulate", SMALL_PAYING, ["--mode", "example"]),
}

GOLDEN = {'exp-freeriders-edges': {'freeriders.csv': 'b69a883d60a1f58c9cb0a64d912004d8fb6f0981765436805edb3ee83ae7a830',
                          'freeriders_manifest.json': '65108933d030a3a90a563e716cf5a5a8cfe86138a544ec42e4d7d22369dbcdaa'},
 'exp-freeriders-one-cell': {'freeriders.csv': '270d3a2a11404c62354e0c8ddebf187e1052339c7e67f93c1dfba0d418177738',
                             'freeriders_manifest.json': '83aefc43d0e44cdb6577798636ea8cca7a3325b4184b52f06749f7e038e44345'},
 'exp-rounds-one-cell': {'rounds.csv': '6097ed9a2a0af155250d01bfb4d5b68c386c4b94a02cb086c532a3029c181a65',
                         'rounds_deals.csv': 'db073e1d62e965a3509ffeb14041d0582348b18f92751028ec04cef75fc4f9e3',
                         'rounds_manifest.json': 'c549a12874248934146db55bb715705a60e7ebe5fd1ca55182e37934bbdc4ff4'},
 'exp-rounds-one-cell-example': {'rounds.csv': '46310df4cb7ca31b63186b3344a227e7bf7e87f880ec7673ba15c842bcd94cc5',
                                 'rounds_deals.csv': '37062bb434139bb4729854a4881ef2c5381363cacc6f5749abb0a35c1ea83e56',
                                 'rounds_manifest.json': '9aab8572fc452e4b0b49c09288f10a8c5c0a37b5ee93cf9e4d942e27fecd6a30'},
 'exp-rounds-one-cell-krr': {'rounds.csv': '476a61bea35920fac407fc686c22d037081413453b7dd90eb5cfadfa25dbc70d',
                             'rounds_deals.csv': 'ab1db2ea9be0bd50e6e9804d63d2cfa7597820709e2ec5960f8ed0a06d2497b8',
                             'rounds_manifest.json': 'ecc0dbd9ecdd074dc2cccb946c948de9d8ff71d75ece2b8e8138d1e80d2acf98'},
 'simulate-default': {'deal.json': '75c2f5ac4f1e454674328fe31695e25c972fc5cce8f76a0a6ac3bb67779430a4',
                      'ledgers.json': 'f892e4c0e1d35fd123f9c42ee9ed93c5e762038bc5d90a5d6f828e35980e2f78',
                      'manifest.json': '4ee09b82eb2581696eebd84b8bbecd7af11593a9063d13b0be2aa72db9581a8c',
                      'penalties.json': '7deaae6a3b26521a4e2febc6ae11feafdd72b86a94ea4f009b37f623a305a3c9',
                      'shares.json': '0d62916daac6748eb2a4cb124eac404218b29afe399b7a27da0dfd690b2ed2c3',
                      'trace.csv': '03849faa97e6936584c3adc6732d1d53473add327351fa76756763210a7d0bc6'},
 'simulate-small-additive': {'deal.json': '10e72fdef9d00cac7350e16fc7d03bce5e8518d96750d10579183a195cd09565',
                             'ledgers.json': 'f2dd2a2181ec0d1ccdfee82e8dbea3d9b5748ba8dcaaca1a7b311482affed6fb',
                             'manifest.json': '5001e4c97a822ffedee80202108756baf8ae6aa102b9db774121ff1fba4c6af5',
                             'penalties.json': 'f90bf681709def0cf8498597235ce2ead1271a61a380760890a0f5ef73fa0271',
                             'shares.json': '2c3512483a0aeed456bf7015b2a9a03f718ca2d4dffb65be5c0e22d3c74795fc',
                             'trace.csv': 'b27f1978b2cd74f7b7288db770c3f20d5220b7e44769a45aa450557ccce07d51'},
 'simulate-small-example': {'deal.json': '2dbd3bd1b90a8f0eca204fadd372fb3cc5eeec3af28abcac6781e746717b9419',
                            'ledgers.json': 'a22f74c6c64af7faace59233d37f76c45063cd0ea5b5ea1d18b552cd5a41229f',
                            'manifest.json': 'ac422a8d6c5dfb3d8bd39418316ce1e423ec69b1e23f948f0668d836ec4c0cb2',
                            'penalties.json': 'f90bf681709def0cf8498597235ce2ead1271a61a380760890a0f5ef73fa0271',
                            'shares.json': 'd003c30dd7b77f48ba875dfbdcc9c10d1a53832d47494361717b1309b00842d9',
                            'trace.csv': 'ceb526a5f6caac166fb1c08147c722c91b7e244e548126f97697898c3cd2b881'},
 'simulate-small-krr': {'deal.json': 'da7340d581d2e8966a7daf6433aca1429ae27b11da713e3bb1bf0511eed99a03',
                        'ledgers.json': 'c512e1768fa1605cf1ac4dbe214908e4380b904a93beae9a47116876c196cbc2',
                        'manifest.json': '2e6e74ac096a1189d684ce917d4b10552252ae0285cc7f0776abbffccfd174dd',
                        'penalties.json': 'f90bf681709def0cf8498597235ce2ead1271a61a380760890a0f5ef73fa0271',
                        'shares.json': '36c9573bdc57666e5718da7a84abc97f8a27820b78e487daaca892a36e08fb6e',
                        'trace.csv': '66e291c1005513e34be3283de135f51e770fffce4f2f915030bb2d492bee7f08'}}


def run_case(case, workdir):
    """Run one case under ``workdir``; return {file name: sha256} of its outputs."""
    command, config_text, flags = CASES[case]
    argv = [command, "--out", str(workdir / "out"), *flags]
    if config_text is not None:
        config_path = workdir / "scenario.yaml"
        config_path.write_text(config_text)
        argv += ["--config", str(config_path)]
    assert main(argv) == 0
    return {p.name: file_digest(p) for p in sorted((workdir / "out").iterdir())}


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden_digests(case, tmp_path):
    assert run_case(case, tmp_path) == GOLDEN[case]


if __name__ == "__main__":
    import pprint
    import tempfile
    from pathlib import Path

    table = {}
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            table[name] = run_case(name, Path(tmp))
    pprint.pprint(table, width=100)
