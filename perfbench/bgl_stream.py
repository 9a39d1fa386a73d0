"""BGL-format log stream generator for the ``bgl_full`` workload.

A copy of the acceptance suite's ``synthesize_bgl``, kept here so that an
edit to the tests cannot silently change a benchmark workload. The
self-test checks that, at the suite's seed, both produce the same bytes.
"""

from __future__ import annotations

import numpy as np

BENIGN_VOCAB = [
    ["instruction", "cache", "prefetch", "stream", "hit", "depth"],
    ["ddr", "scrubbing", "rate", "background", "sweep", "complete"],
    ["core", "configuration", "register", "image", "loaded", "chdir"],
    ["ethernet", "link", "carrier", "detected", "negotiated", "duplex"],
    ["torus", "sender", "retransmission", "queue", "drained", "idle"],
    ["ciod", "socket", "control", "stream", "connected", "service"],
    ["mmcs", "boot", "program", "block", "initialized", "ready"],
    ["fan", "speed", "nominal", "enclosure", "temperature", "stable"],
]
FAULT_WORDS = [
    "kernel_panic", "dtlb_miss", "parity_alert", "machine_check",
    "storage_interrupt", "ras_fatal", "ecc_uncorrectable", "watchdog_reset",
]
FAULT_TAGS = ["KERNDTLB", "KERNMC", "KERNPAN", "APPREAD"]
SEED_KEYWORDS = ["kernel_panic", "dtlb_miss"]


def bgl_stream(seed: int, n_lines: int = 50_000, window: int = 50) -> str:
    """A BGL-shaped stream: alert-tagged lines cluster in incident windows."""
    rng = np.random.default_rng(seed)
    p_fault = np.arange(1, len(FAULT_WORDS) + 1, dtype=float) ** -2.0
    p_fault /= p_fault.sum()
    n_windows = n_lines // window
    anomalous = set(rng.choice(n_windows, size=n_windows // 10, replace=False).tolist())
    ts = 1117838570
    lines = []
    for w in range(n_windows):
        comm = int(rng.integers(len(BENIGN_VOCAB)))
        rack = (
            f"R{int(rng.integers(0, 512)):03d}"
            f"-M{int(rng.integers(0, 2))}-N{int(rng.integers(0, 16))}"
        )
        for _ in range(window):
            ts += int(rng.integers(1, 4))
            stamp = (
                f"2005-06-03-15.42.{int(rng.integers(0, 60)):02d}"
                f".{int(rng.integers(0, 999999)):06d}"
            )
            if w in anomalous and rng.random() < 0.5:
                k = int(rng.integers(2, 5))
                words = [
                    FAULT_WORDS[int(rng.choice(len(FAULT_WORDS), p=p_fault))]
                    for _ in range(k)
                ]
                for i in range(2):
                    v = BENIGN_VOCAB[(comm + 1 + i) % len(BENIGN_VOCAB)]
                    words.append(v[int(rng.integers(len(v)))])
                tag, level = FAULT_TAGS[int(rng.integers(len(FAULT_TAGS)))], "FATAL"
            else:
                vocab = BENIGN_VOCAB[comm]
                words = [
                    vocab[int(rng.integers(len(vocab)))]
                    for _ in range(int(rng.integers(4, 7)))
                ]
                tag, level = "-", "INFO"
            lines.append(
                f"{tag} {ts} 2005.06.03 {rack} {stamp} {rack} RAS KERNEL {level} "
                + " ".join(words)
            )
    return "\n".join(lines) + "\n"
