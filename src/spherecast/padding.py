"""Spherical boundary padding: circular dateline wrap, rotated polar rows.

Polar extension takes the pad_ns rows nearest each pole, rolls them by
half the longitudes (the 180-degree shift that aligns meridians across
the pole), flips their row order, and stacks them beyond the pole.  The
dateline is then wrapped circularly so corner blocks are filled from the
already-extended array.  Padding only permutes (with duplication) existing
cell values; no arithmetic is applied, and unpad(pad(x)) == x bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PadSpec", "pad", "unpad"]


@dataclass(frozen=True)
class PadSpec:
    """Padding widths in cells and the polar extension mode.

    mode "rotate_reflect" rolls polar rows by n_lon/2 before reflecting
    (requires even n_lon); "reflect_only" reflects without the roll.
    """

    pad_ns: int
    pad_ew: int
    mode: str = "rotate_reflect"

    def __post_init__(self):
        if self.pad_ns < 0 or self.pad_ew < 0:
            raise ValueError("padding widths must be non-negative")
        if self.mode not in ("rotate_reflect", "reflect_only"):
            raise ValueError(f"unknown padding mode {self.mode!r}")

    def validate(self, n_lat: int, n_lon: int) -> None:
        if self.pad_ns > n_lat:
            raise ValueError(
                f"pad_ns={self.pad_ns} exceeds n_lat={n_lat}")
        if self.pad_ew > n_lon // 2:
            raise ValueError(
                f"pad_ew={self.pad_ew} exceeds n_lon/2={n_lon // 2}")
        if self.mode == "rotate_reflect" and n_lon % 2:
            raise ValueError(
                "rotate_reflect requires even n_lon (no exact 180-degree "
                f"roll for n_lon={n_lon}); use reflect_only")


def pad(values: np.ndarray, spec: PadSpec) -> np.ndarray:
    """Extend each field of a stack across the poles and the dateline.

    Result shape is (..., n_lat + 2*pad_ns, n_lon + 2*pad_ew).  Poles first:
    row pad_ns-1-k of the output top block is input row k rolled by
    n_lon/2, so the row adjacent to the boundary mirrors the row nearest
    the pole.  Dateline wrap is applied to the pole-extended array.
    """
    values = np.asarray(values)
    if values.ndim < 2:
        raise ValueError(f"need (..., n_lat, n_lon), got shape {values.shape}")
    n_lat, n_lon = values.shape[-2:]
    spec.validate(n_lat, n_lon)
    shift = n_lon // 2 if spec.mode == "rotate_reflect" else 0

    out = values
    if spec.pad_ns:
        top = values[..., :spec.pad_ns, :][..., ::-1, :]
        bottom = values[..., -spec.pad_ns:, :][..., ::-1, :]
        if shift:
            top = np.roll(top, shift, axis=-1)
            bottom = np.roll(bottom, shift, axis=-1)
        out = np.concatenate([top, out, bottom], axis=-2)
    if spec.pad_ew:
        out = np.concatenate(
            [out[..., -spec.pad_ew:], out, out[..., :spec.pad_ew]], axis=-1)
    return np.ascontiguousarray(out)


def unpad(padded: np.ndarray, spec: PadSpec) -> np.ndarray:
    """Recover the interior of each padded field; inverse of pad, bit-exact."""
    padded = np.asarray(padded)
    if padded.ndim < 2:
        raise ValueError(f"need (..., n_lat, n_lon), got shape {padded.shape}")
    n_lat = padded.shape[-2] - 2 * spec.pad_ns
    n_lon = padded.shape[-1] - 2 * spec.pad_ew
    if n_lat < 1 or n_lon < 1:
        raise ValueError(
            f"padded shape {padded.shape} inconsistent with "
            f"pad_ns={spec.pad_ns}, pad_ew={spec.pad_ew}")
    spec.validate(n_lat, n_lon)
    return padded[..., spec.pad_ns:spec.pad_ns + n_lat,
                  spec.pad_ew:spec.pad_ew + n_lon].copy()
