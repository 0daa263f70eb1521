"""Protocol construction (grandtest, leave-one-out) and ISO 30107-3 metrics:
BPCER-anchored thresholds, APCER/BPCER/ACER, per-PAI breakdown, and ROC
export. The score convention everywhere: higher = more bonafide, and a
presentation is classified bonafide iff score >= threshold.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .codec import build
from .dataset import ATTACK_CATEGORIES, LABEL_ATTACK, LABEL_BONAFIDE, AttackType, Manifest
from .files import atomic_write

SPLITS = ("train", "dev", "eval")


class ProtocolError(ValueError):
    """Manifest cannot support the requested protocol."""


class MetricError(ValueError):
    """Score set lacks the entries a metric needs."""


# --------------------------------------------------------------------------
# score tables
# --------------------------------------------------------------------------

#: Attack codes of a score table index this tuple; code 0 is bonafide.
ATTACK_TYPES = tuple(AttackType)
_ATTACK_CODES = {attack.value: code for code, attack in enumerate(ATTACK_TYPES)}


@dataclass(frozen=True, eq=False)
class Scores:
    """Columnar score table, one row per scored frame. ``attack`` holds
    codes into ``ATTACK_TYPES``; a row is bonafide iff its code is 0."""

    sample_id: np.ndarray
    frame_idx: np.ndarray
    score: np.ndarray
    attack: np.ndarray

    def __post_init__(self):
        for name, dtype in (("sample_id", str), ("frame_idx", np.int64),
                            ("score", np.float64), ("attack", np.int64)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        if len({self.sample_id.shape, self.frame_idx.shape, self.score.shape, self.attack.shape}) != 1:
            raise ValueError("score table columns differ in length")

    @classmethod
    def from_rows(cls, rows: Sequence[tuple[str, int]], score, attack) -> "Scores":
        """Table over ``(sample_id, frame_idx)`` rows."""
        return cls([sid for sid, _ in rows], [fidx for _, fidx in rows], score, attack)

    @property
    def bonafide(self) -> np.ndarray:
        return self.attack == 0


def _label(code: int) -> str:
    return LABEL_ATTACK if code else LABEL_BONAFIDE


def save_scores(scores: Scores, path: str | Path) -> None:
    """Score file: one ``sample_id,frame_idx,score,label,attack_type`` line
    per row (no header); the label is derived from the attack code."""
    lines = [
        f"{sid},{fidx},{score!r},{_label(code)},{ATTACK_TYPES[code].value}"
        for sid, fidx, score, code in zip(
            scores.sample_id.tolist(), scores.frame_idx.tolist(),
            scores.score.tolist(), scores.attack.tolist(),
        )
    ]
    atomic_write(path, "\n".join(lines) + ("\n" if lines else ""))


def _score_row(fields: list[str]) -> tuple[str, int, float, int]:
    if len(fields) != 5:
        raise ValueError(f"expected 5 columns, found {len(fields)}")
    sid, fidx, score, label, attack = fields
    if attack not in _ATTACK_CODES:
        raise ValueError(f"unknown attack type {attack!r}")
    code = _ATTACK_CODES[attack]
    if label != _label(code):
        raise ValueError(f"label {label!r} does not match attack type {attack!r}")
    value = float(score)
    if not math.isfinite(value):
        raise ValueError(f"non-finite score {score!r}")
    return sid, int(fidx), value, code


def load_scores(path: str | Path) -> Scores:
    rows = []
    for number, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            rows.append(_score_row(line.split(",")))
        except ValueError as exc:
            raise ValueError(f"{path}: line {number}: {exc}") from None
    sid, fidx, score, attack = zip(*rows) if rows else ((),) * 4
    return Scores(sid, fidx, score, attack)


# --------------------------------------------------------------------------
# protocols
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ProtocolSpec:
    name: str
    assignment: dict[str, str]
    left_out: AttackType | None = None

    def __post_init__(self):
        bad = {s for s in self.assignment.values() if s not in SPLITS}
        if bad:
            raise ValueError(f"unknown splits {sorted(bad)}")

    def split_of(self, sample_id: str) -> str:
        return self.assignment[sample_id]


def largest_remainder(n: int, ratios: Sequence[float]) -> list[int]:
    """Apportion ``n`` items over ratio buckets; remainders broken by larger
    fraction, then lower bucket index."""
    total = float(sum(ratios))
    quotas = [n * r / total for r in ratios]
    base = [math.floor(q) for q in quotas]
    leftover = n - sum(base)
    order = sorted(range(len(ratios)), key=lambda i: (-(quotas[i] - base[i]), i))
    for i in order[:leftover]:
        base[i] += 1
    return base


def _clients_by_category(manifest: Manifest) -> dict[AttackType, list[int]]:
    groups: dict[AttackType, set[int]] = {}
    for entry in manifest:
        groups.setdefault(entry.meta.attack_type, set()).add(entry.meta.client_id)
    return {cat: sorted(clients) for cat, clients in groups.items()}


def _split_clients(clients: list[int], counts: Sequence[int], rng: np.random.Generator) -> dict[int, str]:
    perm = [clients[i] for i in rng.permutation(len(clients))]
    out: dict[int, str] = {}
    pos = 0
    for split, count in zip(SPLITS, counts):
        for client in perm[pos : pos + count]:
            out[client] = split
        pos += count
    return out


def make_grandtest(
    manifest: Manifest,
    ratios: Sequence[float] = (1 / 3, 1 / 3, 1 / 3),
    seed: int = 0,
    name: str = "grandtest",
) -> ProtocolSpec:
    """Seen-attack protocol: within each category (and bonafide), clients are
    shuffled and apportioned to train/dev/eval by largest remainder; all of a
    client's samples follow the client."""
    if len(ratios) != len(SPLITS):
        raise ValueError("need one ratio per split")
    by_cat = _clients_by_category(manifest)
    client_split: dict[int, str] = {}
    for cat_index, cat in enumerate([AttackType.NONE, *ATTACK_CATEGORIES]):
        clients = by_cat.get(cat)
        if clients is None:
            continue
        if len(clients) < 3:
            raise ProtocolError(f"category {cat.value}: need >= 3 clients, have {len(clients)}")
        rng = np.random.default_rng(np.random.SeedSequence((seed, 59, cat_index)))
        counts = largest_remainder(len(clients), ratios)
        client_split.update(_split_clients(clients, counts, rng))
    assignment = {e.sample_id: client_split[e.meta.client_id] for e in manifest}
    return ProtocolSpec(name=name, assignment=assignment, left_out=None)


def make_loo(
    manifest: Manifest,
    attack: AttackType,
    seed: int = 0,
    ratios: Sequence[float] = (1 / 3, 1 / 3, 1 / 3),
) -> ProtocolSpec:
    """Unseen-attack protocol: the left-out category appears only in eval;
    other attack categories split half/half between train and dev; bonafide
    clients split three ways so eval keeps bonafide coverage."""
    if attack is AttackType.NONE:
        raise ProtocolError("cannot leave out the bonafide class")
    by_cat = _clients_by_category(manifest)
    if attack not in by_cat:
        raise ProtocolError(f"attack {attack.value} absent from manifest")
    client_split: dict[int, str] = {}
    bona = by_cat.get(AttackType.NONE, [])
    if len(bona) < 3:
        raise ProtocolError("need >= 3 bonafide clients")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 59, 0)))
    client_split.update(_split_clients(bona, largest_remainder(len(bona), ratios), rng))
    for cat_index, cat in enumerate(ATTACK_CATEGORIES, start=1):
        clients = by_cat.get(cat)
        if clients is None:
            continue
        if cat is attack:
            for client in clients:
                client_split[client] = "eval"
            continue
        rng = np.random.default_rng(np.random.SeedSequence((seed, 59, cat_index)))
        n_train, n_dev = largest_remainder(len(clients), (0.5, 0.5))
        client_split.update(_split_clients(clients, (n_train, n_dev, 0), rng))
    assignment = {e.sample_id: client_split[e.meta.client_id] for e in manifest}
    return ProtocolSpec(name=f"LOO_{attack.value}", assignment=assignment, left_out=attack)


def save_protocol(spec: ProtocolSpec, path: str | Path) -> None:
    payload = {
        "name": spec.name,
        "left_out": spec.left_out.value if spec.left_out else None,
        "assignment": dict(sorted(spec.assignment.items())),
    }
    atomic_write(path, json.dumps(payload, indent=1, sort_keys=True) + "\n")


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------

def threshold_from_bonafide(bonafide_scores: np.ndarray, target: float = 0.01) -> float:
    """Threshold rule: sort bonafide scores ascending s_1..s_N, k =
    floor(target*N), tau = s_{k+1} (tau = s_N when k = N). Guarantees
    dev BPCER = #(s < tau)/N <= target."""
    scores = np.sort(np.asarray(bonafide_scores, dtype=np.float64))
    n = scores.size
    if n == 0:
        raise MetricError("no bonafide scores to anchor the threshold")
    k = int(math.floor(target * n + 1e-9))
    return float(scores[min(k, n - 1)])


@dataclass(frozen=True)
class SplitMetrics:
    apcer: float
    bpcer: float
    acer: float
    apcer_max_pai: float
    per_pai_apcer: dict[str, float]
    per_pai_accuracy: dict[str, float]
    counts: dict[str, int]


def error_rates(scores: np.ndarray, bona: np.ndarray, tau: float) -> tuple[float, float]:
    """(APCER, BPCER) in percent at threshold ``tau``: the share of attack
    scores >= tau and of bonafide scores < tau (0 for an absent class)."""
    accepted = scores >= tau
    n_att = int((~bona).sum())
    n_bona = int(bona.sum())
    apcer = 100.0 * int((~bona & accepted).sum()) / n_att if n_att else 0.0
    bpcer = 100.0 * int((bona & ~accepted).sum()) / n_bona if n_bona else 0.0
    return apcer, bpcer


def compute_metrics(scores: Scores, tau: float) -> SplitMetrics:
    """Percent rates at a fixed threshold: APCER aggregates over all attack
    entries (paper-table convention); the stricter ISO worst-PAI rate is
    reported as ``apcer_max_pai``."""
    if not scores.score.size:
        raise MetricError("empty score set")
    accepted = scores.score >= tau
    apcer, bpcer = error_rates(scores.score, scores.bonafide, tau)
    total = np.bincount(scores.attack, minlength=len(ATTACK_TYPES)).tolist()
    hits = np.bincount(scores.attack[accepted], minlength=len(ATTACK_TYPES)).tolist()

    per_pai_apcer = {
        ATTACK_TYPES[code].value: 100.0 * hits[code] / total[code]
        for code in range(1, len(ATTACK_TYPES))
        if total[code]
    }
    apcer_max = max(per_pai_apcer.values()) if per_pai_apcer else 0.0
    per_pai_acc = {name: 100.0 - value for name, value in per_pai_apcer.items()}

    return SplitMetrics(
        apcer=apcer,
        bpcer=bpcer,
        acer=(apcer + bpcer) / 2.0,
        apcer_max_pai=apcer_max,
        per_pai_apcer=per_pai_apcer,
        per_pai_accuracy=per_pai_acc,
        counts={
            "bonafide": total[0],
            "attack": sum(total[1:]),
            "attack_accepted": sum(hits[1:]),
            "bonafide_rejected": total[0] - hits[0],
        },
    )


def roc(scores: Scores) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(thresholds, APCER, BPCER) columns: one point per distinct score plus
    -inf/+inf sentinels, ascending in threshold (APCER non-increasing, BPCER
    non-decreasing)."""
    bona = scores.bonafide
    if not bona.any() or bona.all():
        raise MetricError("ROC needs both classes")
    att_sorted = np.sort(scores.score[~bona])
    bona_sorted = np.sort(scores.score[bona])
    thresholds = np.concatenate([[-np.inf], np.unique(scores.score), [np.inf]])
    att_accepted = att_sorted.size - np.searchsorted(att_sorted, thresholds, side="left")
    bona_rejected = np.searchsorted(bona_sorted, thresholds, side="left")
    return (
        thresholds,
        100.0 * att_accepted / att_sorted.size,
        100.0 * bona_rejected / bona_sorted.size,
    )


@dataclass(frozen=True)
class MetricsReport:
    protocol: str
    bpcer_target: float
    threshold: float
    dev: SplitMetrics
    eval: SplitMetrics


def build_report(
    dev_scores: Scores,
    eval_scores: Scores,
    bpcer_target: float = 0.01,
    protocol: str = "grandtest",
) -> MetricsReport:
    tau = threshold_from_bonafide(dev_scores.score[dev_scores.bonafide], bpcer_target)
    return MetricsReport(
        protocol=protocol,
        bpcer_target=bpcer_target,
        threshold=tau,
        dev=compute_metrics(dev_scores, tau),
        eval=compute_metrics(eval_scores, tau),
    )


# --------------------------------------------------------------------------
# report files: ``report.json`` is an experiment's one metrics record, and
# ``roc.csv`` (the eval ROC curve) is the only other file eval writes
# --------------------------------------------------------------------------

def write_report_json(report: MetricsReport, path: str | Path) -> None:
    atomic_write(path, json.dumps(asdict(report), indent=1, sort_keys=True) + "\n")


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def load_report(path: str | Path) -> MetricsReport:
    """The record ``write_report_json`` stored at ``path``; any damage (bad
    text or JSON, a non-finite number, a bad field) is a ValueError naming it."""
    try:
        data = json.loads(Path(path).read_text(), parse_float=_finite, parse_constant=_finite)
        return build(MetricsReport, data, "report")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_roc_csv(curve: tuple[np.ndarray, np.ndarray, np.ndarray], path: str | Path) -> None:
    lines = ["threshold,apcer,bpcer"]
    lines.extend(f"{t!r},{a!r},{b!r}" for t, a, b in zip(*(column.tolist() for column in curve)))
    atomic_write(path, "\n".join(lines) + "\n")
