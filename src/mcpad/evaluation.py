"""Protocols, built by ``make_protocol`` from the names that ``left_out_of``
parses (``grandtest``, ``LOO_<attack>``), and ISO 30107-3 metrics: BPCER-
anchored thresholds, APCER/BPCER/ACER, per-PAI breakdown, and ROC export.
The score convention everywhere: higher = more bonafide, and a presentation
is classified bonafide iff score >= threshold. Score files (LF line ends) go
through ``files.write_csv`` and ``read_csv``, ``roc.csv`` through
``write_csv``, protocols and ``report.json`` through ``files.write_json``.
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
from .files import read_csv, write_csv, write_json

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
    write_csv(path, (
        (sid, fidx, score, _label(code), ATTACK_TYPES[code].value)
        for sid, fidx, score, code in zip(
            scores.sample_id.tolist(), scores.frame_idx.tolist(),
            scores.score.tolist(), scores.attack.tolist(),
        )
    ))


def _score_row(fields: list[str]) -> tuple[str, int, float, int]:
    sid, fidx, score, label, attack = fields
    code = ATTACK_TYPES.index(AttackType.from_label(attack))
    if label != _label(code):
        raise ValueError(f"label {label!r} does not match attack type {attack!r}")
    value = float(score)
    if not math.isfinite(value):
        raise ValueError(f"non-finite score {score!r}")
    return sid, int(fidx), value, code


def load_scores(path: str | Path) -> Scores:
    rows = read_csv(path, 5, _score_row)
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


#: The leave-one-out protocol names, each with the attack it leaves out.
LOO_NAMES = {f"LOO_{cat.value}": cat for cat in ATTACK_CATEGORIES}


def left_out_of(name: str) -> AttackType | None:
    """The attack that protocol ``name`` leaves out of training: None for
    ``grandtest``, the attack of ``LOO_<attack>``; any other name, and
    ``LOO_none``, is a ``ProtocolError``."""
    if name != "grandtest" and name not in LOO_NAMES:
        raise ProtocolError(f"protocol {name!r} is not 'grandtest' or one of {list(LOO_NAMES)}")
    return LOO_NAMES.get(name)


def make_protocol(
    manifest: Manifest,
    name: str,
    ratios: Sequence[float] = (1 / 3, 1 / 3, 1 / 3),
    seed: int = 0,
) -> ProtocolSpec:
    """The ``grandtest`` or ``LOO_<attack>`` protocol. The clients of each
    category present, shuffled by seed ``(seed, 59, index)``, are apportioned
    by largest remainder and take their samples with them: the left-out
    attack all to eval, the other attacks under LOO half/half to train and
    dev, and bonafide, and every category under grandtest, by ``ratios``
    (at least 3 clients needed)."""
    left_out = left_out_of(name)
    if len(ratios) != len(SPLITS):
        raise ValueError("need one ratio per split")
    by_cat: dict[AttackType, set[int]] = {}
    for entry in manifest:
        by_cat.setdefault(entry.meta.attack_type, set()).add(entry.meta.client_id)
    if left_out is not None and left_out not in by_cat:
        raise ProtocolError(f"attack {left_out.value} absent from manifest")
    client_split: dict[int, str] = {}
    for index, cat in enumerate(AttackType):
        clients = sorted(by_cat.get(cat, ()))
        if not clients and cat is not AttackType.NONE:
            continue
        if cat is left_out:
            client_split.update(dict.fromkeys(clients, "eval"))
            continue
        by_ratios = left_out is None or cat is AttackType.NONE
        if by_ratios and len(clients) < 3:
            raise ProtocolError(f"category {cat.value}: need >= 3 clients, have {len(clients)}")
        counts = largest_remainder(len(clients), ratios if by_ratios else (0.5, 0.5, 0.0))
        rng = np.random.default_rng(np.random.SeedSequence((seed, 59, index)))
        splits = [split for split, count in zip(SPLITS, counts) for _ in range(count)]
        client_split.update(zip(rng.permutation(clients).tolist(), splits))
    assignment = {e.sample_id: client_split[e.meta.client_id] for e in manifest}
    return ProtocolSpec(name=name, assignment=assignment, left_out=left_out)


def save_protocol(spec: ProtocolSpec, path: str | Path) -> None:
    write_json(path, {
        "name": spec.name,
        "left_out": spec.left_out.value if spec.left_out else None,
        "assignment": dict(sorted(spec.assignment.items())),
    })


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
    write_json(path, asdict(report))


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
    write_csv(path, zip(*(column.tolist() for column in curve)), ["threshold", "apcer", "bpcer"])
