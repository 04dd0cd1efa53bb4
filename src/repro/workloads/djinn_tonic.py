"""Djinn & Tonic-like DNN inference queries (paper Sec. II-C2, Fig. 4).

User-facing ML inference services hosted in containers: short-lived
(tens of milliseconds), arriving in bursts, latency-critical with a
150 ms QoS threshold.  Fig. 4's key facts, which these models
reproduce:

* single-query memory footprints are under ~10 % of a 16 GB device;
* even at batch size 128, most queries stay under 50 % of device
  memory — so inference pods are prime co-location candidates;
* TensorFlow's default allocator nonetheless earmarks ~99 % of device
  memory ("TF" series in Fig. 4), causing severe internal
  fragmentation unless the framework API is exposed to the scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.workloads.base import QoSClass, WorkloadTrace

__all__ = [
    "InferenceProfile",
    "DJINN_TONIC_PROFILES",
    "TF_EARMARK_FRACTION",
    "QOS_THRESHOLD_MS",
    "inference_memory_mb",
    "tf_managed_memory_mb",
    "make_inference_trace",
]

#: End-to-end latency SLO for user-facing queries (Sec. VI-B).
QOS_THRESHOLD_MS = 150.0

#: Fraction of device memory TensorFlow's default allocator grabs.
TF_EARMARK_FRACTION = 0.99

#: Device size Fig. 4 normalizes against (P100, 16 GB).
DEVICE_MEM_MB = 16_384.0


@dataclass(frozen=True)
class InferenceProfile:
    """Shape of one Djinn & Tonic query class.

    ``base_mem_mb`` is the model-weights footprint (batch-independent);
    ``per_query_mb`` the activation cost per batched query;
    ``base_latency_ms`` the single-query device time.
    """

    name: str
    kind: str              # "image" | "speech" | "text"
    base_mem_mb: float
    per_query_mb: float
    base_latency_ms: float
    sm_demand: float


#: Six query classes shown in Fig. 4 (abbreviations from the D&T suite):
#: face = facial recognition, imc = image classification,
#: key = keyword spotting (speech), ner = named-entity recognition,
#: pos = part-of-speech tagging, chk = sentence chunking.
DJINN_TONIC_PROFILES: dict[str, InferenceProfile] = {
    "face": InferenceProfile("face", "image", 950.0, 38.0, 35.0, 0.55),
    "imc": InferenceProfile("imc", "image", 1250.0, 52.0, 45.0, 0.65),
    "key": InferenceProfile("key", "speech", 420.0, 18.0, 30.0, 0.40),
    "ner": InferenceProfile("ner", "text", 240.0, 9.0, 12.0, 0.30),
    "pos": InferenceProfile("pos", "text", 210.0, 8.0, 10.0, 0.28),
    "chk": InferenceProfile("chk", "text", 260.0, 10.0, 14.0, 0.32),
}


def inference_memory_mb(name: str, batch_size: int) -> float:
    """Actual device memory needed by a query class at a batch size."""
    if batch_size < 1:
        raise ValueError(f"batch size must be >= 1, got {batch_size}")
    p = DJINN_TONIC_PROFILES[name]
    return p.base_mem_mb + p.per_query_mb * batch_size


def tf_managed_memory_mb(device_mem_mb: float = DEVICE_MEM_MB) -> float:
    """Memory TensorFlow earmarks regardless of demand (Fig. 4's "TF")."""
    return TF_EARMARK_FRACTION * device_mem_mb


def make_inference_trace(
    name: str,
    rng: np.random.Generator,
    batch_size: int = 1,
    tf_managed: bool = False,
    requested_headroom: float = 1.2,
) -> WorkloadTrace:
    """Build one inference pod's trace.

    The trace has the three-beat structure PP exploits: an input/weights
    transfer burst (rx peak), a short compute phase (SM + memory peak a
    few ms after the bandwidth peak), and a tiny result write-back.

    With ``tf_managed=True`` the pod *requests* the TF earmark (99 % of
    the device) even though it uses far less — reproducing the internal
    fragmentation of Fig. 4 that motivates exposing framework APIs to
    the scheduler (Observation 5).
    """
    p = DJINN_TONIC_PROFILES[name]
    mem = inference_memory_mb(name, batch_size)
    latency = float(p.base_latency_ms * (0.35 + 0.65 * np.sqrt(batch_size)) * rng.uniform(0.9, 1.1))
    load_ms = max(latency * 0.25, 0.5)
    compute_ms = max(latency * 0.65, 0.5)
    store_ms = max(latency * 0.10, 0.2)

    compute_sm = min(p.sm_demand * rng.uniform(0.9, 1.1), 1.0)
    durations = (load_ms, compute_ms, store_ms)
    rows = (
        (0.05, p.base_mem_mb, 20.0, 3500.0),
        (compute_sm, mem, 30.0, 50.0),
        (0.03, p.base_mem_mb * 0.8, 600.0, 10.0),
    )
    requested = tf_managed_memory_mb() if tf_managed else min(mem * requested_headroom, DEVICE_MEM_MB)
    return WorkloadTrace.from_table(
        name,
        durations,
        rows,
        qos_class=QoSClass.LATENCY_CRITICAL,
        requested_mem_mb=requested,
    )
