import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mcpad.dataset import (
    AttackType,
    ChannelId,
    FormatError,
    Manifest,
    MultiChannelSample,
    SampleMeta,
    SynthConfig,
    load_manifest,
    read_sample,
    sample_frames,
    save_manifest,
    synth_generate,
    write_sample,
)


def make_meta(sid="s0", client=0, bonafide=True, attack="print", session=1):
    if bonafide:
        return SampleMeta(sid, client, "bonafide", AttackType.NONE, session)
    return SampleMeta(sid, client, "attack", AttackType.from_label(attack), session)


class TestMeta:
    def test_label_attack_consistency(self):
        with pytest.raises(ValueError):
            SampleMeta("x", 0, "bonafide", AttackType.PRINT, 1)
        with pytest.raises(ValueError):
            SampleMeta("x", 0, "attack", AttackType.NONE, 1)

    def test_session_range(self):
        with pytest.raises(ValueError):
            SampleMeta("x", 0, "bonafide", AttackType.NONE, 8)

    def test_raw_sample_never_carries_gray_and_color(self):
        frames = np.zeros((1, 2, 2), dtype=np.uint8)
        color = np.zeros((1, 2, 2, 3), dtype=np.uint8)
        with pytest.raises(ValueError):
            MultiChannelSample(make_meta(), {ChannelId.COLOR: color, ChannelId.GRAY: frames})


class TestContainer:
    def test_round_trip_identity(self, rng, tmp_path):
        meta = make_meta()
        sample = MultiChannelSample(
            meta,
            {
                ChannelId.COLOR: rng.integers(0, 256, (3, 5, 4, 3)).astype(np.uint8),
                ChannelId.DEPTH: rng.integers(0, 65536, (3, 5, 4)).astype(np.uint16),
                ChannelId.THERMAL: rng.integers(0, 65536, (3, 5, 4)).astype(np.uint16),
            },
        )
        path = tmp_path / "s.mcpd"
        write_sample(sample, path)
        assert read_sample(path, meta=meta) == sample

    def test_bad_magic_offset_zero(self, tmp_path):
        path = tmp_path / "bad.mcpd"
        path.write_bytes(b"XXXX" + bytes(20))
        with pytest.raises(FormatError) as err:
            read_sample(path)
        assert err.value.offset == 0

    def test_unknown_version(self, tmp_path):
        path = tmp_path / "bad.mcpd"
        path.write_bytes(b"MCPD" + bytes([9, 0]))
        with pytest.raises(FormatError):
            read_sample(path)

    def test_truncated_payload(self, tmp_path):
        meta = make_meta()
        sample = MultiChannelSample(meta, {ChannelId.DEPTH: np.zeros((2, 4, 4), dtype=np.uint8)})
        path = tmp_path / "s.mcpd"
        write_sample(sample, path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(FormatError):
            read_sample(path)

    def test_hand_assembled_bytes(self, tmp_path):
        # 2 channels, 3 frames, 4x4, assembled from the normative layout
        depth = np.arange(48, dtype=np.uint8).reshape(3, 4, 4)
        thermal = (np.arange(48, dtype=np.uint16) * 500).reshape(3, 4, 4)
        blob = b"MCPD" + bytes([1, 2])
        blob += struct.pack("<BHHHB", 2, 4, 4, 3, 8) + depth.tobytes()
        blob += struct.pack("<BHHHB", 4, 4, 4, 3, 16) + thermal.astype("<u2").tobytes()
        path = tmp_path / "hand.mcpd"
        path.write_bytes(blob)
        sample = read_sample(path)
        assert np.array_equal(sample.channels[ChannelId.DEPTH], depth)
        assert np.array_equal(sample.channels[ChannelId.THERMAL], thermal)
        assert sample.channels[ChannelId.THERMAL].dtype == np.uint16

    def test_minimal_file_size(self, tmp_path):
        # header 6 bytes + one channel header 8 bytes + 1 payload byte
        sample = MultiChannelSample(make_meta(), {ChannelId.DEPTH: np.array([[[7]]], dtype=np.uint8)})
        path = tmp_path / "one.mcpd"
        write_sample(sample, path)
        assert path.stat().st_size == 15

    def test_empty_channel_rejected(self):
        with pytest.raises(ValueError):
            MultiChannelSample(make_meta(), {ChannelId.DEPTH: np.zeros((0, 4, 4), dtype=np.uint8)})

    @given(
        frames=st.integers(1, 3),
        height=st.integers(1, 6),
        width=st.integers(1, 6),
        sixteen=st.booleans(),
        data=st.data(),
    )
    def test_round_trip_property(self, tmp_path, frames, height, width, sixteen, data):
        dtype = np.uint16 if sixteen else np.uint8
        top = 65535 if sixteen else 255
        values = data.draw(
            st.lists(
                st.integers(0, top),
                min_size=frames * height * width,
                max_size=frames * height * width,
            )
        )
        stack = np.array(values, dtype=dtype).reshape(frames, height, width)
        meta = make_meta()
        sample = MultiChannelSample(meta, {ChannelId.INFRARED: stack})
        path = tmp_path / "prop.mcpd"
        write_sample(sample, path)
        assert read_sample(path, meta=meta) == sample


class TestSampleFrames:
    def test_uniform_300_50(self):
        idx = sample_frames(300, 50)
        assert idx[0] == 0 and idx[-1] == 299 and idx[1] == 6 and len(idx) == 50

    def test_short_video_returns_all(self):
        assert sample_frames(30, 50) == list(range(30))

    def test_single(self):
        assert sample_frames(300, 1) == [0]

    def test_zero_n_rejected(self):
        with pytest.raises(ValueError):
            sample_frames(10, 0)

    @given(frame_count=st.integers(1, 2000), n=st.integers(1, 200))
    def test_properties(self, frame_count, n):
        idx = sample_frames(frame_count, n)
        assert all(0 <= i < frame_count for i in idx)
        assert sorted(set(idx)) == idx
        if n >= 2 and frame_count >= 2:
            assert idx[0] == 0 and idx[-1] == frame_count - 1
        assert len(idx) == min(n, frame_count)


class TestManifest:
    def test_round_trip(self, tmp_path):
        cfg = SynthConfig(
            bonafide_clients=2,
            attack_instruments={AttackType.PRINT: 1},
            frames_per_sample=2,
            image_size=32,
        )
        manifest = synth_generate(cfg, 3, tmp_path / "d")
        save_manifest(manifest, tmp_path / "d" / "manifest.csv")
        loaded = load_manifest(tmp_path / "d" / "manifest.csv")
        assert [e.sample_id for e in loaded] == [e.sample_id for e in manifest]
        assert [e.meta for e in loaded] == [e.meta for e in manifest]

    def test_duplicate_ids_rejected(self):
        from mcpad.dataset import ManifestEntry
        from pathlib import Path

        e = ManifestEntry("dup", Path("/dev/null"), make_meta("dup"))
        with pytest.raises(ValueError):
            Manifest([e, e])

    def test_by_id(self):
        from mcpad.dataset import ManifestEntry
        from pathlib import Path

        entries = [ManifestEntry(sid, Path("/dev/null"), make_meta(sid)) for sid in ("a", "b")]
        manifest = Manifest(entries)
        assert manifest.by_id("b") is entries[1]
        with pytest.raises(KeyError):
            manifest.by_id("c")

    def test_unresolvable_path(self, tmp_path):
        (tmp_path / "manifest.csv").write_text(
            "sample_id,path,client_id,label,attack_type,session\nx,gone.mcpd,0,bonafide,none,1\n"
        )
        with pytest.raises(FileNotFoundError):
            load_manifest(tmp_path / "manifest.csv")


class TestSynth:
    def test_client_id_arithmetic(self, tmp_path):
        cfg = SynthConfig(
            bonafide_clients=9,
            attack_instruments={AttackType.PRINT: 6, AttackType.REPLAY: 6},
            frames_per_sample=1,
            image_size=24,
        )
        manifest = synth_generate(cfg, 0, tmp_path / "d")
        assert len({e.meta.client_id for e in manifest}) == 21
        bona = {e.meta.client_id for e in manifest if e.meta.attack_type is AttackType.NONE}
        att = {e.meta.client_id for e in manifest if e.meta.attack_type is not AttackType.NONE}
        assert not bona & att
        per_cat = {}
        for e in manifest:
            per_cat.setdefault(e.meta.attack_type, set()).add(e.meta.client_id)
        assert len(per_cat[AttackType.PRINT] & per_cat[AttackType.REPLAY]) == 0

    def test_determinism_byte_identical(self, tmp_path):
        cfg = SynthConfig(
            bonafide_clients=2,
            attack_instruments={AttackType.REPLAY: 2},
            frames_per_sample=2,
            image_size=24,
        )
        seed = 11
        m1 = synth_generate(cfg, seed, tmp_path / "a")
        m2 = synth_generate(cfg, seed, tmp_path / "b")
        for e1, e2 in zip(m1, m2):
            assert e1.sample_id == e2.sample_id
            assert e1.path.read_bytes() == e2.path.read_bytes()

    def test_non_signal_channels_share_the_bonafide_render(self, tmp_path):
        # With signal in depth+thermal, the color/infrared render path never
        # consults the class, so regenerating an attack sample's color frame
        # through the bonafide variant is bit-identical.
        from mcpad.dataset import _client_params, _face_map, _render_channel

        cfg = SynthConfig(
            bonafide_clients=1,
            attack_instruments={AttackType.PRINT: 1},
            frames_per_sample=1,
            image_size=24,
        )
        seed = 5
        manifest = synth_generate(cfg, seed, tmp_path / "d")
        attack_entry = next(e for e in manifest if e.meta.attack_type is not AttackType.NONE)
        sample = read_sample(attack_entry.path, meta=attack_entry.meta)
        params = _client_params(seed, attack_entry.meta.client_id)
        face = _face_map(cfg.image_size, params)
        for ch in (ChannelId.COLOR, ChannelId.INFRARED):
            rng = np.random.default_rng(
                np.random.SeedSequence((seed, 29, attack_entry.meta.client_id, 0, 0, ch.value))
            )
            rendered = _render_channel(ch, cfg, params, face, False, 0, rng)
            assert np.array_equal(sample.channels[ch][0], rendered)
        # and the signal channel did use the attack variant
        rng = np.random.default_rng(
            np.random.SeedSequence((seed, 29, attack_entry.meta.client_id, 0, 0, ChannelId.DEPTH.value))
        )
        bona_render = _render_channel(ChannelId.DEPTH, cfg, params, face, False, 0, rng)
        assert not np.array_equal(sample.channels[ChannelId.DEPTH][0], bona_render)

    def test_zero_clients_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(bonafide_clients=0, attack_instruments={AttackType.PRINT: 1})
        with pytest.raises(ValueError):
            SynthConfig(bonafide_clients=1, attack_instruments={})

    def test_signal_channels_must_be_raw(self):
        with pytest.raises(ValueError):
            SynthConfig(
                bonafide_clients=1,
                attack_instruments={AttackType.PRINT: 1},
                signal_channels=frozenset({ChannelId.GRAY}),
            )
