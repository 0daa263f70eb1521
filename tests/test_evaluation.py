import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mcpad.dataset import (
    ATTACK_CATEGORIES,
    AttackType,
    Manifest,
    ManifestEntry,
    SampleMeta,
    SynthConfig,
    synth_generate,
)
from mcpad.evaluation import (
    ATTACK_TYPES,
    LOO_NAMES,
    MetricError,
    ProtocolError,
    Scores,
    build_report,
    compute_metrics,
    largest_remainder,
    left_out_of,
    load_report,
    load_scores,
    make_protocol,
    roc,
    save_protocol,
    save_scores,
    threshold_from_bonafide,
    write_report_json,
    write_roc_csv,
)


def entry(score, attack="none", sid="s", fidx=0):
    """One score row; attack type "none" is bonafide."""
    return sid, fidx, score, ATTACK_TYPES.index(AttackType.from_label(attack))


def table(*rows):
    sid, fidx, score, attack = zip(*rows)
    return Scores(sid, fidx, score, attack)


def toy_scores():
    return table(
        entry(0.1, "print"),
        entry(0.6, "print"),
        entry(0.3, "replay"),
        entry(0.9),
        entry(0.8),
    )


def dev_threshold(dev, target=0.01):
    """The threshold ``build_report`` sets on the dev table."""
    return build_report(dev, dev, target).threshold


def is_bonafide(entry):
    return entry.meta.attack_type is AttackType.NONE


def toy_manifest(bonafide=9, per_category=None):
    per_category = per_category or {"print": 4, "replay": 4, "rigidmask": 4}
    entries = []
    client = 0
    for i in range(bonafide):
        meta = SampleMeta(f"b{i}", client, "bonafide", AttackType.NONE, 1)
        entries.append(ManifestEntry(f"b{i}", Path("/dev/null"), meta))
        client += 1
    for cat, count in per_category.items():
        for i in range(count):
            sid = f"{cat}{i}"
            meta = SampleMeta(sid, client, "attack", AttackType.from_label(cat), 1)
            entries.append(ManifestEntry(sid, Path("/dev/null"), meta))
            client += 1
    return Manifest(entries)


class TestLargestRemainder:
    def test_ten_thirds(self):
        assert largest_remainder(10, (1 / 3, 1 / 3, 1 / 3)) == [4, 3, 3]

    def test_exact_division(self):
        assert largest_remainder(9, (1 / 3, 1 / 3, 1 / 3)) == [3, 3, 3]

    @given(n=st.integers(0, 100), seedy=st.integers(0, 5))
    def test_total_preserved(self, n, seedy):
        ratios = [(1 + seedy), 1.0, 2.0]
        assert sum(largest_remainder(n, ratios)) == n


class TestGrandtest:
    def test_nine_bonafide_three_way(self):
        manifest = toy_manifest(bonafide=9)
        spec = make_protocol(manifest, "grandtest", seed=1)
        bona_splits = {}
        for e in manifest:
            if is_bonafide(e):
                bona_splits.setdefault(spec.split_of(e.sample_id), set()).add(e.meta.client_id)
        assert [len(bona_splits[s]) for s in ("train", "dev", "eval")] == [3, 3, 3]

    def test_client_disjointness(self):
        manifest = toy_manifest()
        spec = make_protocol(manifest, "grandtest", seed=3)
        split_clients = {"train": set(), "dev": set(), "eval": set()}
        for e in manifest:
            split_clients[spec.split_of(e.sample_id)].add(e.meta.client_id)
        assert not split_clients["train"] & split_clients["dev"]
        assert not split_clients["train"] & split_clients["eval"]
        assert not split_clients["dev"] & split_clients["eval"]

    def test_largest_remainder_on_clients(self):
        manifest = toy_manifest(bonafide=10)
        spec = make_protocol(manifest, "grandtest", seed=0)
        counts = {"train": set(), "dev": set(), "eval": set()}
        for e in manifest:
            if is_bonafide(e):
                counts[spec.split_of(e.sample_id)].add(e.meta.client_id)
        assert [len(counts[s]) for s in ("train", "dev", "eval")] == [4, 3, 3]

    def test_too_few_clients(self):
        manifest = toy_manifest(per_category={"print": 2, "replay": 4, "rigidmask": 4})
        with pytest.raises(ProtocolError):
            make_protocol(manifest, "grandtest")

    def test_no_bonafide_client_rejected(self):
        """Bonafide splits by the ratios under grandtest as under LOO, so a
        manifest without bonafide clients cannot build either."""
        manifest = toy_manifest(bonafide=0)
        with pytest.raises(ProtocolError, match="category none: need >= 3 clients, have 0"):
            make_protocol(manifest, "grandtest")
        with pytest.raises(ProtocolError, match="category none"):
            make_protocol(manifest, "LOO_print")

    @given(seed=st.integers(0, 30))
    def test_property_disjoint_for_any_seed(self, seed):
        manifest = toy_manifest(bonafide=7, per_category={"print": 5, "replay": 3})
        spec = make_protocol(manifest, "grandtest", seed=seed)
        clients = {}
        for e in manifest:
            split = spec.split_of(e.sample_id)
            assert clients.setdefault(e.meta.client_id, split) == split


class TestLoo:
    def test_left_out_only_in_eval(self):
        manifest = toy_manifest()
        spec = make_protocol(manifest, "LOO_print", seed=2)
        assert spec.name == "LOO_print"
        for e in manifest:
            split = spec.split_of(e.sample_id)
            if e.meta.attack_type is AttackType.PRINT:
                assert split == "eval"
            elif not is_bonafide(e):
                assert split in ("train", "dev")
        eval_entries = [e for e in manifest if spec.split_of(e.sample_id) == "eval"]
        assert any(is_bonafide(e) for e in eval_entries)
        assert all(
            is_bonafide(e) or e.meta.attack_type is AttackType.PRINT for e in eval_entries
        )

    def test_other_categories_stay_in_train_dev(self):
        manifest = toy_manifest()
        spec = make_protocol(manifest, "LOO_print", seed=2)
        cats = {
            e.meta.attack_type.value
            for e in manifest
            if not is_bonafide(e) and spec.split_of(e.sample_id) in ("train", "dev")
        }
        assert cats == {"replay", "rigidmask"}

    def test_absent_attack_rejected(self):
        manifest = toy_manifest(per_category={"print": 4, "replay": 4, "rigidmask": 4})
        with pytest.raises(ProtocolError):
            make_protocol(manifest, "LOO_glasses")

    def test_seven_protocol_names(self):
        manifest = toy_manifest(per_category={cat.value: 2 for cat in ATTACK_CATEGORIES})
        names = {make_protocol(manifest, f"LOO_{cat.value}").name for cat in ATTACK_CATEGORIES}
        assert names == set(LOO_NAMES) == {
            "LOO_glasses", "LOO_fakehead", "LOO_print", "LOO_replay",
            "LOO_rigidmask", "LOO_flexiblemask", "LOO_papermask",
        }

    @given(seed=st.integers(0, 20))
    def test_exclusion_containment_property(self, seed):
        manifest = toy_manifest(bonafide=6, per_category={"print": 4, "replay": 4})
        spec = make_protocol(manifest, "LOO_replay", seed=seed)
        clients = {}
        for e in manifest:
            split = spec.split_of(e.sample_id)
            assert clients.setdefault(e.meta.client_id, split) == split
            if e.meta.attack_type is AttackType.REPLAY:
                assert split == "eval"


class TestLeftOutOf:
    @pytest.mark.parametrize("name, left_out", [
        ("grandtest", None), ("LOO_replay", AttackType.REPLAY), ("LOO_papermask", AttackType.PAPERMASK),
    ])
    def test_left_out(self, name, left_out):
        assert left_out_of(name) is left_out

    @pytest.mark.parametrize("name", ["bogus", "LOO_nothing", "LOO_none", "LOO_", "loo_print", "grandtest "])
    def test_other_names_rejected(self, name):
        with pytest.raises(ProtocolError, match="is not 'grandtest' or one of"):
            left_out_of(name)
        with pytest.raises(ProtocolError):
            make_protocol(toy_manifest(), name)


# sha256 of the file ``save_protocol`` writes for every protocol of the
# default synth roster (16 bonafide clients, 4 instruments per attack)
PROTOCOL_SHA256 = {
    (101, "grandtest"): "546050270ebc64adf0cf20221de2e81e382cdc37ea0af3ce49a7434839297475",
    (101, "LOO_glasses"): "c7d695adaea4fb90bfbfcecba3e7994edd0b8ee393b790fcd601b425943ee2ab",
    (101, "LOO_fakehead"): "6dd8521fca6ac6fabd4af1cbefee842be6e2b2337739a0001dda7be42aabf93a",
    (101, "LOO_print"): "200bb36c1e4ea7c31ac6f4d61e2ba4e5611a1dfe75b1c07e34223b4568052697",
    (101, "LOO_replay"): "115ebbd99c63c951914600c25a9ff959f9db075e0ab99234d24e5d8e45ef3698",
    (101, "LOO_rigidmask"): "7b0834ba7d5edd70604612cdd0a85f31fde5a16ed3bf0be817637f34e07f5de2",
    (101, "LOO_flexiblemask"): "3d5418fcc4d886fc9f9b4ed0818c3fceb32742c5d976cbcdef770bd9f8946b67",
    (101, "LOO_papermask"): "583dffad1c5db9b674dd5709a6280d60d4914b786481faac30722be653ac14b6",
    (102, "grandtest"): "4381b35fd93dfdcea879873f26a19c4918052b62ee499ff287ed28098f60a305",
    (102, "LOO_glasses"): "274d848506694d88893f9afe0cc01fc86ab7005a085a53d1c943b4355fc88a7f",
    (102, "LOO_fakehead"): "dc78ed728a0fb6369bc77c7bdc36c977c91b6601c54313a5e05913e88a55c71d",
    (102, "LOO_print"): "c4bc63134a54298559988b454e3543a61ef618347d7b451f85d1b5585e450062",
    (102, "LOO_replay"): "5e7c69fa10f6d9479c5505c31366dec1b0a1191b35e36f395ace5d5deace78b6",
    (102, "LOO_rigidmask"): "7bd77fc2aed138b02c1b036f52b469841095318507a71d449f010207406dabb9",
    (102, "LOO_flexiblemask"): "acfea54ad30fc554369a9c106c6ba97c19ee190447b5c938b634f080a7118595",
    (102, "LOO_papermask"): "7760b84d4e5b688a00746c7ebec4a0b7631e6b44fb4d4af12bb278012af86d33",
    (103, "grandtest"): "8be96fc3f6c2fb4579987ed823451141a5d0879a513d28afc0ea048317241ecc",
    (103, "LOO_glasses"): "17838b3f6307638a50bc5f3477b3a38750950383a88ed345ffb8091030a3cc55",
    (103, "LOO_fakehead"): "632c95301bf02b13d9596742afa5a3e645eb565406e334c1d7c44229610308de",
    (103, "LOO_print"): "e27415c5ed35780c2545fef22bb4e77b4b3e22283a81e78f38d4c378bd2ace1e",
    (103, "LOO_replay"): "918cf720c3b383c53e7164c531ee9e2c808f4e764c5f591839e32fb2658cea3d",
    (103, "LOO_rigidmask"): "d83a3ec625459436f2aaf42ade4200d3ca5694b371e309e9eaee4bd877bfaa96",
    (103, "LOO_flexiblemask"): "6294ebbafdadc37888ebf15d069cc63b7d4b9ba2669525e4865693f7bef31565",
    (103, "LOO_papermask"): "6ccc30f67fe52d9c24a5d3f4f1715481e5f2cdee1672bd9630aa876a2cde3745",
}


@pytest.fixture(scope="module")
def synth_roster(tmp_path_factory):
    return synth_generate(SynthConfig(frames_per_sample=1, image_size=16), 0, tmp_path_factory.mktemp("roster"))


@pytest.mark.parametrize("seed, name", list(PROTOCOL_SHA256))
def test_saved_protocol_bytes_pinned(synth_roster, tmp_path, seed, name):
    save_protocol(make_protocol(synth_roster, name, seed=seed), tmp_path / "p.json")
    assert hashlib.sha256((tmp_path / "p.json").read_bytes()).hexdigest() == PROTOCOL_SHA256[seed, name]


class TestThreshold:
    def test_hundred_scores(self):
        dev = table(*[entry(v / 100) for v in range(1, 101)])
        tau = dev_threshold(dev, 0.01)
        assert tau == pytest.approx(0.02)
        below = sum(1 for s in dev.score if s < tau)
        assert below / dev.score.size == pytest.approx(0.01)

    def test_target_zero(self):
        dev = table(*[entry(v / 10) for v in range(1, 11)])
        assert dev_threshold(dev, 0.0) == pytest.approx(0.1)

    def test_all_equal(self):
        dev = table(*[entry(0.7)] * 5)
        tau = dev_threshold(dev, 0.01)
        assert tau == 0.7
        assert sum(1 for s in dev.score if s < tau) == 0

    def test_no_bonafide(self):
        with pytest.raises(MetricError):
            dev_threshold(table(entry(0.5, "print")))

    @given(data=st.data())
    def test_bpcer_never_exceeds_target(self, data):
        scores = data.draw(st.lists(st.floats(0, 1), min_size=1, max_size=60))
        target = data.draw(st.sampled_from([0.0, 0.01, 0.05, 0.2, 1.0]))
        tau = threshold_from_bonafide(np.array(scores), target)
        bpcer = np.mean(np.array(scores) < tau)
        assert bpcer <= target + 1e-12


class TestMetrics:
    def test_hand_counted(self):
        metrics = compute_metrics(toy_scores(), 0.5)
        assert metrics.apcer == pytest.approx(100 / 3)
        assert metrics.bpcer == 0.0
        assert metrics.acer == pytest.approx(100 / 6)
        assert metrics.counts == {
            "bonafide": 2, "attack": 3, "attack_accepted": 1, "bonafide_rejected": 0,
        }

    def test_perfect_separation(self):
        assert compute_metrics(table(entry(0.1, "print"), entry(0.9)), 0.5).acer == 0.0

    def test_threshold_below_everything(self):
        metrics = compute_metrics(toy_scores(), -1.0)
        assert metrics.bpcer == 0.0 and metrics.apcer == 100.0

    def test_acer_identity(self):
        metrics = compute_metrics(toy_scores(), 0.5)
        assert metrics.acer == (metrics.apcer + metrics.bpcer) / 2

    def test_per_pai(self):
        scores = table(entry(0.6, "print"), entry(0.4, "print"), entry(0.1, "replay"))
        acc = compute_metrics(scores, 0.5).per_pai_accuracy
        assert acc == {"print": 50.0, "replay": 100.0}
        assert "rigidmask" not in acc

    def test_apcer_max_pai(self):
        metrics = compute_metrics(toy_scores(), 0.5)
        assert metrics.apcer_max_pai == pytest.approx(50.0)  # print: 1 of 2 accepted

    def test_monotone_transform_invariance(self):
        tau = 0.5
        base = compute_metrics(toy_scores(), tau)
        s = toy_scores()
        warped = Scores(s.sample_id, s.frame_idx, np.exp(3 * s.score), s.attack)
        after = compute_metrics(warped, float(np.exp(3 * tau)))
        assert after.counts == base.counts

    @given(data=st.data())
    def test_against_brute_force(self, data):
        # Codes drawn from all eight (every attack type plus bonafide) or
        # from at most two (single-PAI splits); scores on a coarse grid tie.
        codes = data.draw(st.one_of(
            st.just(list(range(len(ATTACK_TYPES)))),
            st.lists(st.integers(0, len(ATTACK_TYPES) - 1), min_size=1, max_size=2, unique=True),
        ))
        rows = data.draw(st.lists(
            st.tuples(st.integers(0, 10).map(lambda k: k / 10), st.sampled_from(codes)),
            min_size=1, max_size=60,
        ))
        tau = data.draw(st.sampled_from([-1.0, 2.0, *(score for score, _ in rows)]))
        scores = Scores(
            [f"s{i}" for i in range(len(rows))], list(range(len(rows))),
            [score for score, _ in rows], [code for _, code in rows],
        )
        metrics = compute_metrics(scores, tau)

        bona = [score for score, code in rows if code == 0]
        att = [(score, code) for score, code in rows if code != 0]
        accepted = sum(1 for score, _ in att if score >= tau)
        rejected = sum(1 for score in bona if score < tau)
        assert metrics.counts == {
            "bonafide": len(bona), "attack": len(att),
            "attack_accepted": accepted, "bonafide_rejected": rejected,
        }
        apcer = 100.0 * accepted / len(att) if att else 0.0
        bpcer = 100.0 * rejected / len(bona) if bona else 0.0
        assert (metrics.apcer, metrics.bpcer, metrics.acer) == (apcer, bpcer, (apcer + bpcer) / 2)
        per_pai = {}
        for code in sorted({code for _, code in att}):
            pai = [score for score, c in att if c == code]
            per_pai[ATTACK_TYPES[code].value] = 100.0 * sum(1 for s in pai if s >= tau) / len(pai)
        assert metrics.per_pai_apcer == per_pai
        assert metrics.per_pai_accuracy == {name: 100.0 - v for name, v in per_pai.items()}
        assert metrics.apcer_max_pai == (max(per_pai.values()) if per_pai else 0.0)


class TestRoc:
    def test_perfect_curve_contains_corner(self):
        _, apcer, bpcer = roc(table(entry(0.1, "print"), entry(0.9)))
        assert any(a == 0.0 and b == 0.0 for a, b in zip(apcer, bpcer))

    def test_sentinels(self):
        thresholds, apcer, bpcer = roc(toy_scores())
        assert thresholds[0] == -np.inf and apcer[0] == 100.0 and bpcer[0] == 0.0
        assert thresholds[-1] == np.inf and apcer[-1] == 0.0 and bpcer[-1] == 100.0

    def test_monotone_along_thresholds(self):
        _, apcer, bpcer = roc(toy_scores())
        apcers = apcer.tolist()
        bpcers = bpcer.tolist()
        assert all(a >= b for a, b in zip(apcers, apcers[1:]))
        assert all(a <= b for a, b in zip(bpcers, bpcers[1:]))

    def test_against_brute_force(self, rng):
        scores = table(*[
            entry(float(s), "none" if b else "print")
            for s, b in zip(rng.random(300), rng.integers(0, 2, 300))
        ])
        att = scores.score[~scores.bonafide].tolist()
        bona = scores.score[scores.bonafide].tolist()
        for tau, apcer, bpcer in zip(*roc(scores)):
            assert apcer == 100.0 * sum(1 for s in att if s >= tau) / len(att)
            assert bpcer == 100.0 * sum(1 for s in bona if s < tau) / len(bona)

    def test_polarity_reflection(self):
        # At thresholds strictly between score values (no tie ambiguity),
        # negating all scores reflects both error rates.
        scores = toy_scores()
        flipped = Scores(scores.sample_id, scores.frame_idx, -scores.score, scores.attack)
        values = sorted(set(scores.score.tolist()))
        midpoints = [(a + b) / 2 for a, b in zip(values, values[1:])]
        for mid in midpoints:
            base = compute_metrics(scores, mid)
            refl = compute_metrics(flipped, -mid)
            assert refl.apcer == pytest.approx(100.0 - base.apcer)
            assert refl.bpcer == pytest.approx(100.0 - base.bpcer)

    def test_single_class_rejected(self):
        with pytest.raises(MetricError):
            roc(table(entry(0.5)))


class TestScoreFiles:
    def test_round_trip(self, tmp_path):
        scores = table(entry(0.25, "print", "x", 3), entry(0.75, "none", "y", 4))
        save_scores(scores, tmp_path / "s.csv")
        loaded = load_scores(tmp_path / "s.csv")
        for column in ("sample_id", "frame_idx", "score", "attack"):
            assert getattr(loaded, column).tolist() == getattr(scores, column).tolist()

    def test_format_is_line_per_entry(self, tmp_path):
        save_scores(table(entry(0.5, "replay", "sid7", 9)), tmp_path / "s.csv")
        assert (tmp_path / "s.csv").read_text() == "sid7,9,0.5,attack,replay\n"

    def test_columns_must_have_equal_lengths(self):
        with pytest.raises(ValueError, match="length"):
            Scores(["a", "b"], [0, 1], [0.5], [0, 0])


class TestReports:
    def test_build_and_write(self, tmp_path):
        dev = table(
            *[entry(v / 100) for v in range(1, 51)],
            *[entry(v / 1000, "print") for v in range(1, 51)],
        )
        ev = toy_scores()
        report = build_report(dev, ev, 0.01, protocol="grandtest")
        assert report.threshold == pytest.approx(0.01)
        write_report_json(report, tmp_path / "report.json")
        write_roc_csv(roc(ev), tmp_path / "roc.csv")
        assert load_report(tmp_path / "report.json") == report
        assert "per_pai" in (tmp_path / "report.json").read_text()

    def test_roc_csv_fields_are_plain_floats(self, tmp_path):
        curve = roc(toy_scores())
        write_roc_csv(curve, tmp_path / "roc.csv")
        header, *lines = (tmp_path / "roc.csv").read_text().splitlines()
        assert header == "threshold,apcer,bpcer"
        parsed = [[float(field) for field in line.split(",")] for line in lines]
        assert parsed == np.column_stack(curve).tolist()
