import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fedmarket
from fedmarket import cli, experiments
from fedmarket.cli import main
from fedmarket.config import ScenarioConfig, load_config
from fedmarket.errors import OutputError
from fedmarket.manifest import config_digest, file_digest, load_manifest, verify_manifest


SMALL_CONFIG = """
master_seed: 313
federation_sizes: [10]
targets: [40.0]
replications: 4
freerider_sizes: [10]
freerider_years: 4
timing_sizes: [8, 10]
timing_repeats: 1
budget: 500.0
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(SMALL_CONFIG)
    return path


def test_simulate_writes_expected_outputs(config_path, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
    for name in ("trace.csv", "ledgers.json", "deal.json", "shares.json", "penalties.json", "manifest.json"):
        assert (out / name).exists()
    stdout = capsys.readouterr().out
    assert "sealed deal" in stdout

    with open(out / "trace.csv", newline="") as handle:
        header = next(csv.reader(handle))
    assert header == ["year", "round", "provider", "d_t", "eps_t", "cumulative"]


def test_simulate_rerun_is_byte_identical(config_path, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(config_path), "--out", str(out_a)]) == 0
    assert main(["simulate", "--config", str(config_path), "--out", str(out_b)]) == 0
    digests_a = {p.name: file_digest(p) for p in sorted(out_a.iterdir())}
    digests_b = {p.name: file_digest(p) for p in sorted(out_b.iterdir())}
    assert digests_a == digests_b


def test_experiment_and_audit_round_trip(config_path, tmp_path, capsys):
    out = tmp_path / "exp"
    assert main(["exp-rounds", "--config", str(config_path), "--out", str(out)]) == 0
    assert (out / "rounds.csv").exists()
    assert (out / "rounds_deals.csv").exists()
    assert (out / "rounds_manifest.json").exists()

    with open(out / "rounds.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 4 * 2  # replications x policies
    assert set(r["policy"] for r in rows) == {"catalyzing", "non-catalyzing"}

    # every row's cell is backed by a seed in the manifest
    manifest = json.loads((out / "rounds_manifest.json").read_text())
    for row in rows:
        key = f"rounds/n={row['n']}/target={row['target']}/rep={row['replication']}"
        assert key in manifest["seeds"]

    assert main(["audit", "--out", str(out)]) == 0
    assert "audit clean" in capsys.readouterr().out


def test_experiment_rerun_reproduces_digests(config_path, tmp_path):
    out_a, out_b = tmp_path / "e1", tmp_path / "e2"
    assert main(["exp-rounds", "--config", str(config_path), "--out", str(out_a)]) == 0
    assert main(["exp-rounds", "--config", str(config_path), "--out", str(out_b)]) == 0
    manifest_a = json.loads((out_a / "rounds_manifest.json").read_text())
    manifest_b = json.loads((out_b / "rounds_manifest.json").read_text())
    assert manifest_a == manifest_b
    assert manifest_a["outputs"]["rounds.csv"] == file_digest(out_b / "rounds.csv")


@pytest.mark.parametrize(
    "edit_row, problems",
    [
        # exceeds the budget, and is not the price
        (lambda row: {**row, "payout": repr(float(row["budget"]) * 2)}, 2),
        (lambda row: {**row, "budget": "nan"}, 1),
        (lambda row: {**row, "budget": "inf"}, 1),
    ],
    ids=["payout-past-budget", "nan-budget", "infinite-budget"],
)
def test_audit_flags_tampered_deals_csv_row(edit_row, problems, config_path, tmp_path, capsys):
    out = tmp_path / "exp"
    main(["exp-rounds", "--config", str(config_path), "--out", str(out)])
    deals = out / "rounds_deals.csv"
    with open(deals, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert rows[0]["payout"] == rows[0]["price"] != "0.0"  # the edited record pays
    rows[0] = edit_row(rows[0])
    with open(deals, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=rows[0].keys())
        writer.writeheader()
        writer.writerows(rows)
    capsys.readouterr()
    assert main(["audit", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == problems
    assert all(line.startswith("AUDIT FAIL: rounds_deals.csv:") for line in err)


def test_audit_flags_tampered_deal_json(config_path, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
    assert main(["audit", "--out", str(out)]) == 0
    deal = json.loads((out / "deal.json").read_text())
    deal["payout"] += 1.0  # neither the price nor zero
    (out / "deal.json").write_text(json.dumps(deal))
    capsys.readouterr()
    assert main(["audit", "--out", str(out)]) == 1
    assert "AUDIT FAIL: deal.json" in capsys.readouterr().err


def _void(deal):
    """``deal`` as a void record: its promise missed, it pays nothing."""
    return {**deal, "achieved_eps": 0.0, "payout": 0.0}


@pytest.mark.parametrize(
    "edit_deal",
    [
        lambda deal: json.dumps({**deal, "payout": "x"}),
        lambda deal: json.dumps({k: v for k, v in deal.items() if k != "price"}),
        lambda deal: json.dumps([deal]),
        lambda deal: "payout: 0\n",
        # json.load recurses once per level, so this nesting raises RecursionError inside it
        lambda deal: "[" * 100_000 + "]" * 100_000,
        # json.dumps writes NaN and Infinity, which json.load reads back as floats
        lambda deal: json.dumps({**deal, "budget": math.nan}),
        lambda deal: json.dumps({**deal, "budget": math.inf}),
        lambda deal: json.dumps({**_void(deal), "price": math.nan}),
        lambda deal: json.dumps({**_void(deal), "promised_eps": math.nan}),
        lambda deal: json.dumps({**_void(deal), "achieved_eps": math.nan}),
    ],
    ids=[
        "non-numeric-payout",
        "missing-key",
        "json-list",
        "not-json",
        "nested-past-the-recursion-limit",
        "paying-nan-budget",
        "paying-infinite-budget",
        "void-nan-price",
        "void-nan-promised",
        "void-nan-achieved",
    ],
)
def test_audit_reports_unreadable_deal_json(edit_deal, config_path, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
    deal = json.loads((out / "deal.json").read_text())
    assert deal["payout"] == deal["price"] > 0.0  # SMALL_CONFIG's deal pays
    (out / "deal.json").write_text(edit_deal(json.loads((out / "deal.json").read_text())))
    capsys.readouterr()
    assert main(["audit", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("AUDIT FAIL: deal.json: unreadable") and err.count("\n") == 1


@pytest.mark.parametrize("drop_price_column", [False, True], ids=["short-row", "missing-column"])
def test_audit_reports_deals_csv_rows_missing_a_column(drop_price_column, config_path, tmp_path, capsys):
    out = tmp_path / "exp"
    assert main(["exp-rounds", "--config", str(config_path), "--out", str(out)]) == 0
    deals = out / "rounds_deals.csv"
    with open(deals, newline="") as handle:
        rows = list(csv.reader(handle))
    if drop_price_column:
        price = rows[0].index("price")
        rows = [row[:price] + row[price + 1 :] for row in rows]
    else:
        rows[1] = rows[1][:-1]  # the first record lacks its payout
    with open(deals, "w", newline="") as handle:
        csv.writer(handle).writerows(rows)
    capsys.readouterr()
    assert main(["audit", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == (len(rows) - 1 if drop_price_column else 1)
    assert all(line.startswith("AUDIT FAIL: rounds_deals.csv") for line in err)


def test_audit_reports_undecodable_deals_csv(config_path, tmp_path, capsys):
    out = tmp_path / "exp"
    assert main(["exp-rounds", "--config", str(config_path), "--out", str(out)]) == 0
    (out / "rounds_deals.csv").write_bytes(b"experiment,cell\n\xff\xfe,1\n")
    capsys.readouterr()
    assert main(["audit", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("AUDIT FAIL: rounds_deals.csv: unreadable") and err.count("\n") == 1


def test_exp_freeriders_smoke(config_path, tmp_path):
    out = tmp_path / "fr"
    assert main(["exp-freeriders", "--config", str(config_path), "--out", str(out)]) == 0
    with open(out / "freeriders.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    # one federation size x three tolerances x two policies x four reps
    assert len(rows) == 1 * 3 * 2 * 4
    assert all(int(r["free_rider_count"]) >= 0 for r in rows)
    assert main(["audit", "--out", str(out)]) == 0  # nothing to settle, and nothing missing


def test_audit_of_a_directory_without_runs_fails(tmp_path, capsys):
    assert main(["audit", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"AUDIT FAIL: no deal records found under {tmp_path}\n"


# The shares digests of SMALL_CONFIG's timing games. timing.csv holds wall
# times, so no golden file covers these games.
TIMING_DIGESTS = {
    "8": "ba151a2913b3501737be66c43eac3c0212e7c491fa3322c96f39a304d1436d0b",
    "10": "d1f40838a2d265db15d28c043f2db1617e933c4250d7ba98309473e4d92cac36",
}


def test_exp_timing_smoke(config_path, tmp_path, capsys):
    out = tmp_path / "timing"
    assert main(["exp-timing", "--config", str(config_path), "--out", str(out)]) == 0
    with open(out / "timing.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    by_n = {}
    for row in rows:
        by_n.setdefault(row["n"], {})[row["method"]] = row["shares_digest"]
    assert by_n == {n: {"exact": digest, "pruned": digest} for n, digest in TIMING_DIGESTS.items()}
    assert main(["audit", "--out", str(out)]) == 0


@pytest.mark.parametrize(
    "command, manifest_name",
    (
        ("simulate", "manifest.json"),
        ("exp-rounds", "rounds_manifest.json"),
        ("exp-freeriders", "freeriders_manifest.json"),
        ("exp-timing", "timing_manifest.json"),
    ),
)
def test_manifest_digests_match_the_files_written(command, manifest_name, config_path, tmp_path):
    out = tmp_path / "run"
    assert main([command, "--config", str(config_path), "--out", str(out)]) == 0
    manifest = load_manifest(out / manifest_name)
    assert set(manifest.outputs) == {p.name for p in out.iterdir()} - {manifest_name}
    assert verify_manifest(manifest, load_config(config_path), out) == []


def test_shapley_subcommand(tmp_path, capsys):
    game = {
        "mode": "additive",
        "target": 1.4,
        "prize": 60.0,
        "k": 2,
        "players": [
            {"id": "p1", "batches": [{"d": 1, "eps": 1.0}]},
            {"id": "p2", "batches": [{"d": 1, "eps": 0.5}]},
            {"id": "p3", "batches": [{"d": 1, "eps": 0.3}]},
        ],
    }
    path = tmp_path / "game.json"
    path.write_text(json.dumps(game))
    assert main(["shapley", str(path), "--method", "exact"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["shares"] == {"p1": 30.0, "p2": 30.0, "p3": 0.0}


def test_shapley_krr_target_nobody_reaches_splits_to_zero(tmp_path, capsys):
    # no pooled level exceeds MAX_EPSILON, so every share is 0, and nothing warns:
    # e^800 overflows a float; e^709.5 does not, but theta times b's mass does
    for target, (d, eps) in ((800.0, (2, 1.5)), (709.5, (100, 0.1))):
        game = {
            "mode": "krr",
            "target": target,
            "prize": 100.0,
            "k": 4,
            "players": [
                {"id": "a", "batches": [{"d": 3, "eps": 700.0}]},
                {"id": "b", "batches": [{"d": d, "eps": eps}]},
                {"id": "c", "batches": []},
            ],
        }
        path = tmp_path / "game.json"
        path.write_text(json.dumps(game))
        for method in ("exact", "pruned", "sampled"):
            assert main(["shapley", str(path), "--method", method, "--samples", "64"]) == 0
            out, err = capsys.readouterr()
            assert err == "", (target, method)
            assert json.loads(out)["shares"] == {"a": 0.0, "b": 0.0, "c": 0.0}, (target, method)


@pytest.mark.parametrize(
    "name, text, argv",
    [
        ("deep.json", "[" * 100_000 + "]" * 100_000, ["shapley", "{path}"]),
        ("deep.yaml", "[" * 5_000 + "]" * 5_000 + "\n", ["simulate", "--config", "{path}", "--out", "{out}"]),
    ],
    ids=["game-file", "config"],
)
def test_input_nested_past_the_recursion_limit_exits_2_with_one_line(name, text, argv, tmp_path, capsys):
    # both parsers recurse once per level, so this nesting raises RecursionError inside them
    path = tmp_path / name
    path.write_text(text)
    assert main([arg.format(path=path, out=tmp_path / "out") for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err and "recursion" in err


def _game_text(d=1, eps=1.0, k=2, target=1.0, prize=10.0):
    return json.dumps(
        {
            "mode": "additive",
            "target": target,
            "prize": prize,
            "k": k,
            "players": [{"id": "p1", "batches": [{"d": d, "eps": eps}]}],
        }
    )


def test_python_dash_m_runs_the_cli(tmp_path):
    path = tmp_path / "game.json"
    path.write_text(_game_text(target=0.5))
    src = str(Path(fedmarket.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run(
        [sys.executable, "-m", "fedmarket", "shapley", str(path), "--method", "exact"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["shares"] == {"p1": 10.0}


@pytest.mark.parametrize(
    "text, flags",
    [
        ('{"players": [', ()),
        ("[1, 2]", ()),
        (_game_text(d=1.7), ()),
        (_game_text(k=2.9), ()),
        (_game_text(prize=float("nan")), ()),
        (_game_text(prize=float("inf")), ()),
        (_game_text(eps="1.5"), ()),
        (_game_text(target="1.0"), ()),
        (_game_text(prize=True), ()),
        (_game_text(d=True), ()),
        (_game_text(), ("--method", "sampled", "--seed", "-1")),
    ],
    ids=[
        "malformed-json",
        "json-list",
        "fractional-d",
        "fractional-k",
        "nan-prize",
        "infinite-prize",
        "string-eps",
        "string-target",
        "bool-prize",
        "bool-d",
        "negative-seed",
    ],
)
def test_shapley_rejects_bad_game_with_one_line(text, flags, tmp_path, capsys):
    path = tmp_path / "game.json"
    path.write_text(text)
    assert main(["shapley", str(path), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def _edited_game(*path, value=None):
    """The ``_game_text`` game with the entry at ``path`` set to ``value``, or removed if None."""
    game = json.loads(_game_text())
    container = game
    for step in path[:-1]:
        container = container[step]
    if value is None:
        del container[path[-1]]
    else:
        container[path[-1]] = value
    return game


@pytest.mark.parametrize(
    "game, message",
    [
        (_edited_game("target"), "target is missing"),
        (_edited_game("prize"), "prize is missing"),
        (_edited_game("players"), "players is missing"),
        (_edited_game("players", 0, "id"), "players[0].id is missing"),
        (_edited_game("players", 0, "batches"), "players[0].batches is missing"),
        (_edited_game("players", 0, "batches", 0, "eps"), "players[0].batches[0].eps is missing"),
        (_edited_game("players", 0, "batches", 0, "d"), "players[0].batches[0].d is missing"),
        (_edited_game("players", value="p1"), "players must be a list, got str"),
        (_edited_game("players", value={"id": "p1"}), "players must be a list, got dict"),
        (_edited_game("players", 0, "batches", value="d1"), "players[0].batches must be a list, got str"),
        (_edited_game("players", 0, value="p1"), "players[0] must be an object, got str"),
        (
            _edited_game("players", 0, "batches", 0, value=[1, 1.0]),
            "players[0].batches[0] must be an object, got list",
        ),
        (
            _edited_game("players", 0, "batches", 0, "d", value=1.5),
            "players[0].batches[0].d must be an integer, got 1.5",
        ),
        (_edited_game("players", 0, value={"id": None, "batches": []}), "players[0].id must be a string, got None"),
        (_edited_game("players", 0, "id", value=[1, 2]), "players[0].id must be a string, got [1, 2]"),
        (_edited_game("players", 0, "id", value=1), "players[0].id must be a string, got 1"),
    ],
    ids=[
        "no-target",
        "no-prize",
        "no-players",
        "no-id",
        "no-batches",
        "no-eps",
        "no-d",
        "string-players",
        "object-players",
        "string-batches",
        "string-player",
        "list-batch",
        "fractional-d-path",
        "null-id",
        "list-id",
        "integer-id",
    ],
)
def test_shapley_names_the_bad_field(game, message, tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(game))
    assert main(["shapley", str(path)]) == 2
    assert capsys.readouterr().err == f"error: bad game file {path}: {message}\n"


_ODD = st.sampled_from([None, True, False, "", "1", "krr", [], [1], {}, {"d": 1}])
_ODD_NUMBERS = st.sampled_from([-1, -0.5, 0, 2.5, 10**400, math.nan, math.inf, -math.inf])


@st.composite
def _games(draw):
    """A valid game of up to 12 players, with up to two values replaced by odd ones:
    bools, strings, containers, negatives, non-finite and out-of-range numbers."""
    players = [
        {
            "id": draw(st.sampled_from(["a", "b", "c"])) + str(i),
            "batches": [
                {"d": draw(st.integers(0, 6)), "eps": draw(st.floats(0.05, 8.0))}
                for _ in range(draw(st.integers(0, 3)))
            ],
        }
        for i in range(draw(st.integers(0, 12)))
    ]
    game = {
        "mode": draw(st.sampled_from(["additive", "example", "krr"])),
        "k": draw(st.integers(2, 8)),
        "target": draw(st.floats(0.1, 20.0)),
        "prize": draw(st.floats(0.0, 100.0)),
        "players": players,
    }
    batches = [batch for player in players for batch in player["batches"]]
    numbers = [(game, "k"), (game, "target"), (game, "prize")]
    numbers += [(batch, key) for batch in batches for key in batch]
    others = [(game, "mode"), (game, "players")] + [(players, i) for i in range(len(players))]
    others += [(player, key) for player in players for key in player]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        container, key = draw(st.sampled_from(numbers) | st.sampled_from(others))
        container[key] = draw(_ODD_NUMBERS | _ODD)
    return draw(_ODD) if draw(st.integers(0, 19)) == 0 else game


# a valid one-player game; each explicit example below, a crash the fuzz found,
# replaces one of its values
_FOUND = {"players": [{"id": "a", "batches": [{"d": 1, "eps": 1.0}]}], "target": 1.0, "prize": 1.0}


class TestShapleyCliFuzz:
    """Random game files, valid or not: a result, or one ``error:`` line and exit 2/3."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(game=_games())
    @example(game=_FOUND | {"players": [{"id": "a", "batches": [{"d": math.inf, "eps": 1.0}]}]})
    @example(game=_FOUND | {"players": [{"id": "a", "batches": [{"d": 10**400, "eps": 1.0}]}]})
    @example(game=_FOUND | {"k": 10**400})
    @example(game=_FOUND | {"target": 10**400})
    def test_every_method_exits_cleanly(self, game):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "game.json"
            path.write_text(json.dumps(game))
            for method in ("exact", "pruned", "sampled"):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(["shapley", str(path), "--method", method, "--samples", "64"])
                assert code in (0, 2, 3)
                if code:
                    lines = err.getvalue().splitlines()
                    assert len(lines) == 1 and lines[0].startswith("error: ")
                else:
                    assert json.loads(out.getvalue())["method"] == method


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("aggregation: bogus\n")
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_config_exit_code(tmp_path):
    assert main(["exp-rounds", "--config", str(tmp_path / "none.yaml"), "--out", str(tmp_path)]) == 2


def test_capacity_error_exit_code(tmp_path, capsys):
    game = {
        "mode": "additive",
        "target": 5.0,
        "prize": 1.0,
        "players": [{"id": f"p{i}", "batches": [{"d": 1, "eps": 1.0}]} for i in range(31)],
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(game))
    assert main(["shapley", str(path), "--method", "exact"]) == 3


@pytest.mark.parametrize(
    "command, out", (("simulate", "blocker"), ("exp-rounds", "blocker/sub")), ids=("simulate", "exp-rounds")
)
def test_output_error_exit_code(command, out, config_path, tmp_path, capsys):
    (tmp_path / "blocker").write_text("a regular file, not a directory\n")
    assert main([command, "--config", str(config_path), "--out", str(tmp_path / out)]) == 4
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write ")


@pytest.mark.parametrize(
    "command, step",
    (
        ("simulate", "build_federation"),
        ("exp-rounds", "build_federation"),
        ("exp-freeriders", "build_federation"),
        ("exp-timing", "timing_game"),
    ),
)
def test_unwritable_out_fails_before_computing(command, step, config_path, tmp_path, capsys, monkeypatch):
    def computes(*args, **kwargs):
        raise AssertionError(f"{command} called {step} before --out was checked")

    monkeypatch.setattr(experiments, step, computes)
    (tmp_path / "blocker").write_text("a regular file, not a directory\n")
    out = tmp_path / "blocker" / "sub"
    assert main([command, "--config", str(config_path), "--out", str(out)]) == 4
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: cannot write {out}")


def test_library_run_into_unwritable_out_fails_before_computing(tmp_path, monkeypatch):
    def computes(*args, **kwargs):
        raise AssertionError("simulate built a federation before out_dir was checked")

    monkeypatch.setattr(experiments, "build_federation", computes)
    (tmp_path / "blocker").write_text("a regular file, not a directory\n")
    with pytest.raises(OutputError, match=f"cannot write {tmp_path / 'blocker' / 'sub'}"):
        experiments.simulate(ScenarioConfig(), tmp_path / "blocker" / "sub")


@pytest.mark.parametrize(
    "command, text",
    (("simulate", "budget: 0.001\n"), ("exp-rounds", "targets: [1.0e-12]\nreplications: 1\n")),
    ids=("simulate", "exp-rounds"),
)
def test_deal_that_buys_no_privacy_exits_2(command, text, tmp_path, capsys):
    path = tmp_path / "scenario.yaml"
    path.write_text(text)
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: budget ")
    assert "buys no privacy from federation" in lines[0] and "w* = 0" in lines[0]


@st.composite
def _simulate_configs(draw):
    """Small whole-run scenarios; budgets down to 1e-6 seal deals that buy nothing."""
    return {
        "master_seed": draw(st.integers(0, 2**32 - 1)),
        "aggregation": draw(st.sampled_from(["additive", "example", "krr"])),
        "k": draw(st.integers(2, 6)),
        "federation_sizes": [draw(st.integers(1, 8))],
        "data_points": draw(st.integers(1, 12)),
        "budget": draw(st.floats(1.0, 10.0)) * 10.0 ** draw(st.integers(-6, 3)),
        "policy": draw(st.sampled_from(["catalyzing", "non-catalyzing"])),
        "max_rounds": draw(st.integers(1, 6)),
        "warmup_years": draw(st.integers(0, 2)),
        "tolerance_window": draw(st.integers(1, 3)),
        "delta_thresholds": [draw(st.floats(0.05, 50.0))],
        "shapley_samples": 64,
    }


class TestSimulateCliFuzz:
    """Whole ``simulate`` runs from random configs: a clean audit, or one ``error:`` line and exit 2."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(config=_simulate_configs())
    @example(config={"federation_sizes": [8], "budget": 1.0e-6, "shapley_samples": 64})
    def test_every_run_exits_cleanly(self, config):
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "scenario.yaml", Path(tmp) / "out"
            path.write_text(yaml.safe_dump(config))
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["simulate", "--config", str(path), "--out", str(out)])
                if code == 0:
                    assert main(["audit", "--out", str(out)]) == 0
            if code:
                lines = err.getvalue().splitlines()
                assert code == 2 and len(lines) == 1 and lines[0].startswith("error: "), lines


@st.composite
def _experiment_configs(draw):
    """Small experiment grids for ``exp-rounds`` and ``exp-freeriders``; targets
    down to 1e-12 price deals that buy nothing, targets up to 1e4 deals no
    federation can meet."""
    # grid lists hold distinct values: a repeated one stops the run at load
    sizes = st.lists(st.integers(1, 8), min_size=1, max_size=2, unique=True)
    positives = st.lists(
        st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 10.0), st.integers(-12, 3)),
        min_size=1,
        max_size=2,
        unique=True,
    )
    return {
        "master_seed": draw(st.integers(0, 2**32 - 1)),
        "aggregation": draw(st.sampled_from(["additive", "example", "krr"])),
        "k": draw(st.integers(2, 6)),
        "replications": draw(st.integers(1, 2)),
        "data_points": draw(st.integers(1, 12)),
        "points_per_round": draw(st.integers(1, 4)),
        "participation_prob": draw(st.floats(0.0, 1.0)),
        "initial_eps_high": draw(st.floats(0.01, 1.0)),
        "federation_sizes": draw(sizes),
        "targets": draw(positives),
        "max_rounds": draw(st.integers(1, 6)),
        "warmup_years": draw(st.integers(0, 2)),
        "tolerance_window": draw(st.integers(1, 3)),
        "freerider_sizes": draw(sizes),
        "delta_thresholds": draw(positives),
        "freerider_years": draw(st.integers(1, 4)),
        "freerider_rounds_per_year": draw(st.integers(1, 3)),
        "freerider_points_per_round": draw(st.integers(1, 3)),
        "freerider_initial_eps_high": draw(st.floats(0.01, 1.0)),
    }


class TestExperimentCliFuzz:
    """Whole experiment grids from random configs: a clean audit, or one ``error:`` line and exit 2."""

    @pytest.mark.parametrize("command", ("exp-rounds", "exp-freeriders"))
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(config=_experiment_configs())
    def test_every_run_exits_cleanly(self, command, config):
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "scenario.yaml", Path(tmp) / "out"
            path.write_text(yaml.safe_dump(config))
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([command, "--config", str(path), "--out", str(out)])
                if code == 0:
                    assert main(["audit", "--out", str(out)]) == 0
            if code:
                lines = err.getvalue().splitlines()
                assert code == 2 and len(lines) == 1 and lines[0].startswith("error: "), lines


def test_cli_overrides_change_outputs(config_path, tmp_path):
    out_a, out_b = tmp_path / "s1", tmp_path / "s2"
    main(["simulate", "--config", str(config_path), "--out", str(out_a), "--seed", "1"])
    main(["simulate", "--config", str(config_path), "--out", str(out_b), "--seed", "2"])
    assert file_digest(out_a / "trace.csv") != file_digest(out_b / "trace.csv")


def test_cli_flags_are_config_keys(config_path, tmp_path):
    flags = ["--seed", "5", "--mode", "krr", "--policy", "non-catalyzing", "--replications", "2"]
    keys = {"master_seed": 5, "aggregation": "krr", "policy": "non-catalyzing", "replications": 2}
    keyed = tmp_path / "keyed.yaml"
    keyed.write_text(yaml.safe_dump({**yaml.safe_load(SMALL_CONFIG), **keys}))
    out_flags, out_keys = tmp_path / "flags", tmp_path / "keys"
    assert main(["simulate", "--config", str(config_path), "--out", str(out_flags), *flags]) == 0
    assert main(["simulate", "--config", str(keyed), "--out", str(out_keys)]) == 0
    digests_flags = {p.name: file_digest(p) for p in sorted(out_flags.iterdir())}
    digests_keys = {p.name: file_digest(p) for p in sorted(out_keys.iterdir())}
    assert digests_flags == digests_keys
    manifest = json.loads((out_flags / "manifest.json").read_text())
    assert manifest["config_digest"] == config_digest(load_config(keyed))
    assert manifest["master_seed"] == 5
