"""Multi-channel sample model, bit-exact container i/o, manifests, frame
sampling, and the synthetic dataset generator used for desk-scale runs.

Container layout (little-endian, normative):
    magic "MCPD" | version u8 (=1) | channel count u8
    per channel:
        channel-id u8 (0=color 1=gray 2=depth 3=infrared 4=thermal)
        width u16 | height u16 | frame count u16 | bit depth u8 (8|16)
        frames row-major (color interleaved R,G,B)

Manifest format: CSV with header ``sample_id,path,client_id,label,attack_type,session``.
"""

from __future__ import annotations

import csv
import functools
import io
import os
import struct
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .files import ByteReader, FormatError, atomic_write

MAGIC = b"MCPD"
CONTAINER_VERSION = 1

LABEL_BONAFIDE = "bonafide"
LABEL_ATTACK = "attack"


class ChannelId(Enum):
    """Sensor channel; the enum value is the on-disk channel-id byte."""

    COLOR = 0
    GRAY = 1
    DEPTH = 2
    INFRARED = 3
    THERMAL = 4

    @property
    def label(self) -> str:
        return self.name.lower()

    @classmethod
    def from_label(cls, label: str) -> "ChannelId":
        try:
            return cls[label.upper()]
        except KeyError:
            raise ValueError(f"unknown channel {label!r}") from None


#: Channels a raw capture may carry (gray only exists after preprocessing).
RAW_CHANNELS = (ChannelId.COLOR, ChannelId.DEPTH, ChannelId.INFRARED, ChannelId.THERMAL)


class AttackType(Enum):
    NONE = "none"
    GLASSES = "glasses"
    FAKEHEAD = "fakehead"
    PRINT = "print"
    REPLAY = "replay"
    RIGIDMASK = "rigidmask"
    FLEXIBLEMASK = "flexiblemask"
    PAPERMASK = "papermask"

    @property
    def label(self) -> str:
        return self.value

    @classmethod
    def from_label(cls, label: str) -> "AttackType":
        for member in cls:
            if member.value == label:
                return member
        raise ValueError(f"unknown attack type {label!r}")


#: All proper attack categories (everything but NONE), in declaration order.
ATTACK_CATEGORIES = tuple(a for a in AttackType if a is not AttackType.NONE)


@dataclass(frozen=True)
class SampleMeta:
    sample_id: str
    client_id: int
    label: str
    attack_type: AttackType
    session_id: int

    def __post_init__(self):
        if self.label not in (LABEL_BONAFIDE, LABEL_ATTACK):
            raise ValueError(f"label must be bonafide|attack, got {self.label!r}")
        if (self.label == LABEL_ATTACK) != (self.attack_type is not AttackType.NONE):
            raise ValueError("label=attack iff attack_type != none")
        if self.client_id < 0:
            raise ValueError("client_id must be non-negative")
        if not 1 <= self.session_id <= 7:
            raise ValueError("session_id must be in 1..7")


@dataclass
class MultiChannelSample:
    """Per-channel frame stacks plus identity/label metadata.

    Non-color channels are ``(frames, height, width)`` uint8/uint16 arrays;
    the color channel is ``(frames, height, width, 3)`` uint8.
    """

    meta: SampleMeta | None
    channels: dict[ChannelId, np.ndarray]

    def __post_init__(self):
        if not self.channels:
            raise ValueError("sample must contain at least one channel")
        if ChannelId.COLOR in self.channels and ChannelId.GRAY in self.channels:
            raise ValueError("a sample never carries both color and gray")
        for ch, stack in self.channels.items():
            if stack.dtype not in (np.uint8, np.uint16):
                raise ValueError(f"{ch.label}: dtype must be uint8/uint16, got {stack.dtype}")
            want_ndim = 4 if ch is ChannelId.COLOR else 3
            if stack.ndim != want_ndim:
                raise ValueError(f"{ch.label}: expected {want_ndim}-d stack, got {stack.ndim}-d")
            if ch is ChannelId.COLOR and (stack.shape[-1] != 3 or stack.dtype != np.uint8):
                raise ValueError("color channel must be (F,H,W,3) uint8")
            if stack.size == 0:
                raise ValueError(f"{ch.label}: empty frame stack")

    def frame_count(self, channel: ChannelId) -> int:
        return self.channels[channel].shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiChannelSample):
            return NotImplemented
        if self.meta != other.meta or set(self.channels) != set(other.channels):
            return False
        return all(
            self.channels[ch].dtype == other.channels[ch].dtype
            and np.array_equal(self.channels[ch], other.channels[ch])
            for ch in self.channels
        )


# --------------------------------------------------------------------------
# container i/o
# --------------------------------------------------------------------------

_CHAN_HEADER = struct.Struct("<BHHHB")


def write_sample(sample: MultiChannelSample, path: str | Path) -> None:
    """Serialize a sample; atomic (write temp file, rename)."""
    path = Path(path)
    parts = [MAGIC, struct.pack("<BB", CONTAINER_VERSION, len(sample.channels))]
    for ch in sorted(sample.channels, key=lambda c: c.value):
        stack = sample.channels[ch]
        frames, height, width = stack.shape[:3]
        bits = 16 if stack.dtype == np.uint16 else 8
        if max(width, height, frames) > 0xFFFF:
            raise ValueError("dimension exceeds u16 container limit")
        parts.append(_CHAN_HEADER.pack(ch.value, width, height, frames, bits))
        parts.append(np.ascontiguousarray(stack, dtype="<u2" if bits == 16 else "u1"))
    atomic_write(path, parts)


def read_sample(path: str | Path, meta: SampleMeta | None = None) -> MultiChannelSample:
    """Parse a container file into read-only arrays over its bytes; ``meta``
    is attached as-is (it lives in the manifest, not in the container)."""
    reader = ByteReader(Path(path).read_bytes())
    reader.magic(MAGIC, "container")
    version, n_channels = reader.take("<BB", "header")
    if version != CONTAINER_VERSION:
        raise FormatError(f"unknown version {version}", offset=4)
    channels: dict[ChannelId, np.ndarray] = {}
    for _ in range(n_channels):
        pos = reader.pos
        code, width, height, frames, bits = reader.take(_CHAN_HEADER.format, "channel header")
        try:
            ch = ChannelId(code)
        except ValueError:
            raise FormatError(f"unknown channel id {code}", offset=pos) from None
        if ch in channels:
            raise FormatError(f"repeated channel id {code}", offset=pos)
        if bits not in (8, 16):
            raise FormatError(f"unsupported bit depth {bits}", offset=pos + 7)
        values = frames * height * width * (3 if ch is ChannelId.COLOR else 1)
        flat = reader.array("<u2" if bits == 16 else "u1", values, "payload")
        shape = (frames, height, width, 3) if ch is ChannelId.COLOR else (frames, height, width)
        channels[ch] = flat.reshape(shape).astype(flat.dtype.newbyteorder("="), copy=False)
    reader.end()
    return MultiChannelSample(meta=meta, channels=channels)


# --------------------------------------------------------------------------
# manifest
# --------------------------------------------------------------------------

MANIFEST_HEADER = ["sample_id", "path", "client_id", "label", "attack_type", "session"]


@dataclass(frozen=True)
class ManifestEntry:
    sample_id: str
    path: Path
    meta: SampleMeta


@dataclass
class Manifest:
    entries: list[ManifestEntry] = field(default_factory=list)

    def __post_init__(self):
        self._by_id = {e.sample_id: e for e in self.entries}
        if len(self._by_id) != len(self.entries):
            raise ValueError("duplicate sample_ids in manifest")

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def by_id(self, sample_id: str) -> ManifestEntry:
        return self._by_id[sample_id]


def save_manifest(manifest: Manifest, path: str | Path) -> None:
    path = Path(path)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(MANIFEST_HEADER)
    for e in manifest.entries:
        rel = os.path.relpath(e.path, path.parent)
        writer.writerow(
            [e.sample_id, rel, e.meta.client_id, e.meta.label,
             e.meta.attack_type.value, e.meta.session_id]
        )
    atomic_write(path, buf.getvalue())


def load_manifest(path: str | Path) -> Manifest:
    path = Path(path)
    entries = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != MANIFEST_HEADER:
            raise ValueError(f"bad manifest header {header!r}")
        for row in reader:
            if not row:
                continue
            try:
                if len(row) != len(MANIFEST_HEADER):
                    raise ValueError(f"expected {len(MANIFEST_HEADER)} columns, found {len(row)}")
                sid, rel, client, label, attack, session = row
                meta = SampleMeta(sid, int(client), label, AttackType.from_label(attack), int(session))
            except ValueError as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
            sample_path = (path.parent / rel).resolve()
            if not sample_path.exists():
                raise FileNotFoundError(f"manifest path not resolvable: {sample_path}")
            entries.append(ManifestEntry(sid, sample_path, meta))
    return Manifest(entries)


# --------------------------------------------------------------------------
# frame sampling
# --------------------------------------------------------------------------

def sample_frames(frame_count: int, n: int) -> list[int]:
    """Uniformly spaced frame indices: round(i*(F-1)/(n-1)), endpoints included.

    Short stacks (F < n) return every index.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if frame_count < 1:
        raise ValueError("frame_count must be positive")
    if frame_count <= n:
        return list(range(frame_count))
    if n == 1:
        return [0]
    step = (frame_count - 1) / (n - 1)
    return [int(np.floor(i * step + 0.5)) for i in range(n)]


# --------------------------------------------------------------------------
# synthetic generator
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SynthConfig:
    """Controls for the synthetic multi-channel dataset; also the ``synth``
    section of the run configuration (the seed is the run's).

    Bonafide and attack renders differ only in ``signal_channels``; every
    other channel is drawn from one class-independent distribution.
    """

    bonafide_clients: int = 16
    attack_instruments: dict[AttackType, int] = field(
        default_factory=lambda: {cat: 4 for cat in ATTACK_CATEGORIES}
    )
    frames_per_sample: int = 20
    image_size: int = 80
    signal_channels: frozenset[ChannelId] = frozenset({ChannelId.DEPTH, ChannelId.THERMAL})
    noise_level: float = 6.0
    thermal_offset: float = 3000.0
    samples_per_client: int = 1

    def __post_init__(self):
        if self.bonafide_clients < 1:
            raise ValueError("need at least one bonafide client")
        if not self.attack_instruments or sum(self.attack_instruments.values()) < 1:
            raise ValueError("need at least one attack instrument")
        for cat, count in self.attack_instruments.items():
            if cat is AttackType.NONE:
                raise ValueError("attack_instruments cannot contain 'none'")
            if count < 1:
                raise ValueError(f"{cat.value}: instrument count must be >= 1")
        if not self.signal_channels:
            raise ValueError("signal_channels must be nonempty")
        if not set(self.signal_channels) <= set(RAW_CHANNELS):
            raise ValueError("signal_channels must be raw channels (color/depth/infrared/thermal)")
        if self.noise_level < 0:
            raise ValueError("noise level must be >= 0")
        if self.frames_per_sample < 1 or self.image_size < 16 or self.samples_per_client < 1:
            raise ValueError("frames/image size/samples per client out of range")


@dataclass(frozen=True)
class _ClientParams:
    cx: float
    cy: float
    eye_dx: float
    sigma_x: float
    sigma_y: float
    amp: float
    tint: tuple[float, float, float]
    plane_theta: float
    stripe_phase: float


def _client_params(seed: int, client_id: int) -> _ClientParams:
    # One fixed draw sequence per client, identical for both classes; the
    # attack-only parameters are drawn unconditionally to keep streams aligned.
    rng = np.random.default_rng(np.random.SeedSequence((seed, 17, client_id)))
    return _ClientParams(
        cx=0.5 + rng.uniform(-0.012, 0.012),
        cy=0.48 + rng.uniform(-0.012, 0.012),
        eye_dx=0.15 * (1.0 + rng.uniform(-0.03, 0.03)),
        sigma_x=0.21 * (1.0 + rng.uniform(-0.04, 0.04)),
        sigma_y=0.26 * (1.0 + rng.uniform(-0.04, 0.04)),
        amp=rng.uniform(160.0, 180.0),
        tint=tuple(rng.uniform(0.95, 1.05, size=3)),
        plane_theta=rng.uniform(0.0, 2 * np.pi),
        stripe_phase=rng.uniform(0.0, 2 * np.pi),
    )


@functools.cache
def _unit_grid(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (ys, xs) pixel coordinates of a ``size`` frame, divided by
    ``size``; built once per size."""
    ys, xs = np.mgrid[0:size, 0:size].astype(np.float64) / size
    ys.flags.writeable = xs.flags.writeable = False
    return ys, xs


def _face_map(size: int, p: _ClientParams) -> np.ndarray:
    """A client's face in [0, 1]: a smooth blob with eye and mouth dips."""
    ys, xs = _unit_grid(size)
    bump = np.exp(-(((xs - p.cx) ** 2) / (2 * p.sigma_x**2) + ((ys - p.cy) ** 2) / (2 * p.sigma_y**2)))
    face = bump.copy()
    eye_y = p.cy - 0.07
    for ex in (p.cx - p.eye_dx, p.cx + p.eye_dx):
        face -= 0.45 * np.exp(-(((xs - ex) ** 2) + ((ys - eye_y) ** 2)) / (2 * 0.03**2))
    mouth_y = p.cy + 0.18
    face -= 0.35 * np.exp(-(((xs - p.cx) ** 2) / (2 * 0.06**2) + ((ys - mouth_y) ** 2) / (2 * 0.025**2)))
    return np.clip(face, 0.0, 1.0)


def _stripes(size: int, category_index: int, phase: float) -> np.ndarray:
    ys = np.arange(size, dtype=np.float64) / size
    freq = 4.0 + 2.0 * category_index
    return np.sin(2 * np.pi * freq * ys + phase)[:, None] * np.ones((1, size))


def _render_channel(
    channel: ChannelId,
    cfg: SynthConfig,
    params: _ClientParams,
    face: np.ndarray,
    attack_variant: bool,
    category_index: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Render one frame of one channel from the client's ``_face_map``;
    ``attack_variant`` is only ever true for channels in ``signal_channels``."""
    size = cfg.image_size
    noise = cfg.noise_level

    if channel is ChannelId.COLOR:
        base = 30.0 + params.amp * face
        if attack_variant:
            grain = _stripes(size, category_index, params.stripe_phase)
            base = 30.0 + params.amp * np.clip(face * (1.0 + 0.30 * grain), 0.0, 1.0)
        frame = np.empty((size, size, 3), dtype=np.float64)
        for c in range(3):
            frame[:, :, c] = base * params.tint[c] + rng.normal(0.0, noise, (size, size))
        return np.clip(np.rint(frame), 0, 255).astype(np.uint8)

    if channel is ChannelId.INFRARED:
        if attack_variant:
            grain = _stripes(size, category_index, params.stripe_phase)
            base = 25.0 + 0.8 * params.amp * (0.45 * face + 0.25) + 12.0 * grain
        else:
            base = 25.0 + 0.8 * params.amp * face
        frame = base + rng.normal(0.0, noise, (size, size))
        return np.clip(np.rint(frame), 0, 255).astype(np.uint8)

    if channel is ChannelId.DEPTH:
        ys, xs = _unit_grid(size)
        if attack_variant:
            # Flat presentation: unit-strength tilted plane with a
            # category-specific surface texture.
            plane = np.cos(params.plane_theta) * (xs - 0.5) + np.sin(params.plane_theta) * (ys - 0.5)
            tex = _stripes(size, category_index, params.stripe_phase)
            base = 22000.0 + 6000.0 * plane + 350.0 * tex
        else:
            # Smooth face-like bump toward the camera; shape shared across
            # clients so the class structure dominates client identity.
            bump_d = np.exp(
                -(((xs - params.cx) ** 2) / (2 * 0.23**2) + ((ys - params.cy) ** 2) / (2 * 0.28**2))
            )
            base = 22000.0 - 8000.0 * bump_d
        frame = base + rng.normal(0.0, 40.0 * max(noise, 0.5), (size, size))
        return np.clip(np.rint(frame), 0, 65535).astype(np.uint16)

    if channel is ChannelId.THERMAL:
        if attack_variant:
            # Mask-like presentation: flat-topped warmth, cooler overall,
            # category-specific surface texture.
            tex = _stripes(size, category_index, params.stripe_phase)
            base = 26000.0 - cfg.thermal_offset + 8000.0 * np.clip(face, 0.0, 0.45) * 0.9 + 300.0 * tex
        else:
            base = 26000.0 + 8000.0 * face
        frame = base + rng.normal(0.0, 40.0 * max(noise, 0.5), (size, size))
        return np.clip(np.rint(frame), 0, 65535).astype(np.uint16)

    raise ValueError(f"generator renders raw channels only, not {channel.label}")


def _landmark_lines(cfg: SynthConfig, params: _ClientParams, seed_key: tuple) -> list[str]:
    size = cfg.image_size
    rng = np.random.default_rng(np.random.SeedSequence(seed_key))
    lines = []
    eye_y = (params.cy - 0.07) * size
    for frame_idx in range(cfg.frames_per_sample):
        jit = rng.uniform(-0.7, 0.7, size=6)
        lx = (params.cx - params.eye_dx) * size + jit[0]
        ly = eye_y + jit[1]
        rx = (params.cx + params.eye_dx) * size + jit[2]
        ry = eye_y + jit[3]
        mx = params.cx * size + jit[4]
        my = (params.cy + 0.18) * size + jit[5]
        lines.append(f"{frame_idx},{lx:.3f},{ly:.3f},{rx:.3f},{ry:.3f},{mx:.3f},{my:.3f}")
    return lines


def synth_generate(cfg: SynthConfig, seed: int, out_dir: str | Path) -> Manifest:
    """Write containers + landmark sidecars under ``out_dir`` and return the
    manifest. Deterministic function of the config and the seed."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    roster: list[tuple[int, AttackType, int]] = []  # (client_id, category, category_index)
    next_client = 0
    for _ in range(cfg.bonafide_clients):
        roster.append((next_client, AttackType.NONE, -1))
        next_client += 1
    for cat_index, cat in enumerate(ATTACK_CATEGORIES):
        for _ in range(cfg.attack_instruments.get(cat, 0)):
            roster.append((next_client, cat, cat_index))
            next_client += 1

    entries = []
    for client_id, category, cat_index in roster:
        params = _client_params(seed, client_id)
        face = _face_map(cfg.image_size, params)
        is_attack = category is not AttackType.NONE
        tag = category.value if is_attack else LABEL_BONAFIDE
        for k in range(cfg.samples_per_client):
            sample_id = f"{tag}_c{client_id:04d}_s{k:02d}"
            meta = SampleMeta(
                sample_id=sample_id,
                client_id=client_id,
                label=LABEL_ATTACK if is_attack else LABEL_BONAFIDE,
                attack_type=category,
                session_id=1 + (client_id + k) % 7,
            )
            channels: dict[ChannelId, np.ndarray] = {}
            for ch in RAW_CHANNELS:
                variant = is_attack and ch in cfg.signal_channels
                frames = []
                for frame_idx in range(cfg.frames_per_sample):
                    rng = np.random.default_rng(
                        np.random.SeedSequence((seed, 29, client_id, k, frame_idx, ch.value))
                    )
                    frames.append(_render_channel(ch, cfg, params, face, variant, cat_index, rng))
                channels[ch] = np.stack(frames)
            sample = MultiChannelSample(meta=meta, channels=channels)
            container = out_dir / f"{sample_id}.mcpd"
            write_sample(sample, container)
            lm_lines = _landmark_lines(cfg, params, (seed, 31, client_id, k))
            atomic_write(container.with_suffix(".landmarks"), "\n".join(lm_lines) + "\n")
            entries.append(ManifestEntry(sample_id, container.resolve(), meta))

    entries.sort(key=lambda e: e.sample_id)
    return Manifest(entries)
