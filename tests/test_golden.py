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

# The default federation (n = 25) at a budget it delivers: a paying deal
# too large to enumerate, so the sampler splits the whole 7000 payout.
PAYING_SAMPLED = """
budget: 7000.0
"""

# Under kRR the default federation delivers a budget of 1000 and the
# sampler splits it; low-epsilon steps make the win flag fall, so some
# shares are negative.
PAYING_SAMPLED_KRR = """
budget: 1000.0
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
    "exp-freeriders-edges-krr": ("exp-freeriders", FREERIDER_EDGES, ["--mode", "krr"]),
    "exp-freeriders-one-cell-krr": ("exp-freeriders", ONE_CELL, ["--mode", "krr"]),
    "exp-freeriders-one-cell-example": ("exp-freeriders", ONE_CELL, ["--mode", "example"]),
    "exp-rounds-one-cell-krr": ("exp-rounds", ONE_CELL, ["--mode", "krr"]),
    "exp-rounds-one-cell-example": ("exp-rounds", ONE_CELL, ["--mode", "example"]),
    "simulate-small-additive": ("simulate", SMALL_PAYING, []),
    "simulate-small-krr": ("simulate", SMALL_PAYING, ["--mode", "krr"]),
    "simulate-small-example": ("simulate", SMALL_PAYING, ["--mode", "example"]),
    "simulate-paying-sampled": ("simulate", PAYING_SAMPLED, []),
    "simulate-paying-sampled-krr": ("simulate", PAYING_SAMPLED_KRR, ["--mode", "krr"]),
    # the non-catalyzing single run: fresh draws every round, and (paying) an early exit
    "simulate-small-non-catalyzing": ("simulate", SMALL_PAYING, ["--policy", "non-catalyzing"]),
    "simulate-paying-sampled-non-catalyzing": (
        "simulate",
        PAYING_SAMPLED,
        ["--policy", "non-catalyzing"],
    ),
}

GOLDEN = {'exp-freeriders-edges': {'freeriders.csv': 'b69a883d60a1f58c9cb0a64d912004d8fb6f0981765436805edb3ee83ae7a830',
                          'freeriders_manifest.json': '65108933d030a3a90a563e716cf5a5a8cfe86138a544ec42e4d7d22369dbcdaa'},
 'exp-freeriders-edges-krr': {'freeriders.csv': 'b69a883d60a1f58c9cb0a64d912004d8fb6f0981765436805edb3ee83ae7a830',
                              'freeriders_manifest.json': '17d643dbfc34a6769a01e09924a89f612dae3fe6359bae0d1de962d46922a81c'},
 'exp-freeriders-one-cell': {'freeriders.csv': '270d3a2a11404c62354e0c8ddebf187e1052339c7e67f93c1dfba0d418177738',
                             'freeriders_manifest.json': '83aefc43d0e44cdb6577798636ea8cca7a3325b4184b52f06749f7e038e44345'},
 'exp-freeriders-one-cell-example': {'freeriders.csv': '270d3a2a11404c62354e0c8ddebf187e1052339c7e67f93c1dfba0d418177738',
                                     'freeriders_manifest.json': '30ff546c3aa839c661ddb5b33650400dac056b8ec52163c3ce91b6a5172efc4f'},
 'exp-freeriders-one-cell-krr': {'freeriders.csv': '270d3a2a11404c62354e0c8ddebf187e1052339c7e67f93c1dfba0d418177738',
                                 'freeriders_manifest.json': '6cbbdf3cac957d0392aadec0ec65a218cddcc71d7c8c6f75ddb5b231becf45f9'},
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
 'simulate-paying-sampled': {'deal.json': '4c9c041bc29e810dbfdfad81cbca8e765e2a332c11053b7445141d6d22e3a7c2',
                             'ledgers.json': '4cffc86fa8941ff74b57e22a288cf9d995ca67d7f629bdcc81c5a12baef7a9ff',
                             'manifest.json': '01f66a799c003a43ebcdc04481d258e6c4436b8690e16b008890dea6d4255243',
                             'penalties.json': '49fd1c7f29abc3bc40ed91840e6fdc3d24967934f90d199d0d812fea61084f60',
                             'shares.json': 'd17ddfd7fba4a2b3af23de9c5001918ebab67e3edc6a99fa7b54db0255596e20',
                             'trace.csv': '05d6c78ec7e7c81863b5c0784f7c8f95811d75c2311339e3d215f684dff69180'},
 'simulate-paying-sampled-krr': {'deal.json': '4e408a83d34a073ed56dc2236a511e72d22fe724b1bd33c08efc43167c168a4f',
                                 'ledgers.json': '2e693cec20e2a14ce9efdeb7950bf39a900832e2664e4b7a0bbd1ca1e6376786',
                                 'manifest.json': 'a40cd2619022b1564480365f5dbf3a9b053906ebcbf60d29293516a26c648027',
                                 'penalties.json': 'a3b989f9063d124f22f66f6e9129b77802d13354ce0bb31535572189d820009b',
                                 'shares.json': '51b391d87c21128186657bc559b4ace50bd13d0038384cb0d1c62235e5988e76',
                                 'trace.csv': '14c7cbf8b867eebdc81c73cfff3a948f17843dd11bca5fa6884804b2ae31d2ba'},
 'simulate-paying-sampled-non-catalyzing': {'deal.json': '77737ca00a13eca63e2323abbf9cdcda66749d35ff1afba7b13e340ac266a2a4',
                                            'ledgers.json': 'c57a0e8ee35c6078c66b7b7a44b72b310a1fce112f16089f9c08c4476b54a93b',
                                            'manifest.json': '276c6b9f1c61c20c0a024994ca0cfc60f162e9c239863c293f3b80e75b80f865',
                                            'penalties.json': 'b7999e22680691f8c9f43644824366178a3757ee07dea8d4ee0d9b5827c67e5e',
                                            'shares.json': 'c4890d579b7e07d53f60d341233689b7c88f94b408c8ab53bcbbd6c2f8f46cef',
                                            'trace.csv': '0eeb1f71fdf84a31310803736d86e8280541424212f04c1e48dd689ceb468ffc'},
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
 'simulate-small-non-catalyzing': {'deal.json': '10e72fdef9d00cac7350e16fc7d03bce5e8518d96750d10579183a195cd09565',
                                   'ledgers.json': 'f2dd2a2181ec0d1ccdfee82e8dbea3d9b5748ba8dcaaca1a7b311482affed6fb',
                                   'manifest.json': 'b6a17216aecc82768bed6628985581fff69d44580b7dd2e133050c9485192862',
                                   'penalties.json': 'f90bf681709def0cf8498597235ce2ead1271a61a380760890a0f5ef73fa0271',
                                   'shares.json': '2c3512483a0aeed456bf7015b2a9a03f718ca2d4dffb65be5c0e22d3c74795fc',
                                   'trace.csv': 'b27f1978b2cd74f7b7288db770c3f20d5220b7e44769a45aa450557ccce07d51'},
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
