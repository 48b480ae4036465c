"""File formats: spectrum documents (YAML) and signal tables (CSV).

Spectrum file layout::

    n: 2
    entries:
    - {sigma: 1.0, omega: 0.0, eta: 1.0, phi: 0.0}
    - {sigma: 0.5, omega: 0.0, eta: 1.0, phi: 0.0}
    physical:            # optional
      beta2_s2_per_m: -2.1e-26
      gamma_per_W_m: 1.3e-3
      T0_s: 1.0e-11

``phi`` is in radians.  Signal files are CSV with header ``t,re,im,abs``,
one row per sample, time ascending.  Writers format floats with repr so
identical inputs produce byte-identical files.
"""

from __future__ import annotations

import math
from dataclasses import astuple
from pathlib import Path

import numpy as np
import yaml

from .darboux import SampledSignal, TimeGrid
from .errors import SolitonError, SpectrumFileError
from .spectrum import _FIELDS, DiscreteSpectrum, PhysicalScaling

_ENTRY_NAMES = tuple(name for name, _, _ in _FIELDS)
# the file keys of the PhysicalScaling fields, in their order
PHYSICAL_FIELDS = ("beta2_s2_per_m", "gamma_per_W_m", "T0_s")


def _require_numbers(mapping, fields, where) -> list[float]:
    """The numbers under ``fields``, in order; the mapping may hold no other key."""
    unknown = set(mapping) - set(fields)
    if unknown:
        raise SpectrumFileError(f"{where}: unknown fields {sorted(unknown)}")
    values = []
    for field in fields:
        if field not in mapping:
            raise SpectrumFileError(f"{where}: missing field {field!r}")
        value = mapping[field]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SpectrumFileError(f"{where}: field {field!r} must be a number, got {value!r}")
        values.append(float(value))
    return values


def parse_spectrum_document(text: str) -> tuple[DiscreteSpectrum, PhysicalScaling | None]:
    """Parse and validate a spectrum document.

    Raises SpectrumFileError naming the offending field; YAML syntax errors
    carry the line/column mark of the parser.
    """
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise SpectrumFileError(f"not valid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise SpectrumFileError("document root must be a mapping")
    if "n" not in doc:
        raise SpectrumFileError("missing field 'n'")
    n = doc["n"]
    entries = doc.get("entries")
    if not isinstance(entries, list) or not entries:
        raise SpectrumFileError("field 'entries' must be a non-empty list")
    if isinstance(n, bool) or not isinstance(n, int):
        raise SpectrumFileError(f"field 'n' must be an integer, got {n!r}")
    if n != len(entries):
        raise SpectrumFileError(f"field 'n' = {n!r} does not match {len(entries)} entries")
    rows = []
    for i, entry in enumerate(entries):
        where = f"entries[{i}]"
        if not isinstance(entry, dict):
            raise SpectrumFileError(f"{where}: must be a mapping")
        rows.append(_require_numbers(entry, _ENTRY_NAMES, where))
    try:
        spectrum = DiscreteSpectrum(*zip(*rows))
    except (ValueError, SolitonError) as exc:
        raise SpectrumFileError(f"entries: {exc}") from exc

    scaling = None
    if "physical" in doc and doc["physical"] is not None:
        phys = doc["physical"]
        if not isinstance(phys, dict):
            raise SpectrumFileError("field 'physical' must be a mapping")
        values = _require_numbers(phys, PHYSICAL_FIELDS, "physical")
        try:
            scaling = PhysicalScaling(*values)
        except (ValueError, SolitonError) as exc:
            raise SpectrumFileError(f"physical: {exc}") from exc
    return spectrum, scaling


def _yaml_float(value: float) -> str:
    # YAML 1.1 floats need a dot: bare '1e-11' would load as a string
    text = repr(float(value))
    if "e" in text and "." not in text:
        mantissa, exponent = text.split("e")
        text = f"{mantissa}.0e{exponent}"
    return text


def format_spectrum_document(
    spectrum: DiscreteSpectrum, scaling: PhysicalScaling | None = None
) -> str:
    lines = [f"n: {spectrum.n}", "entries:"]
    for row in zip(*(getattr(spectrum, name + "s") for name in _ENTRY_NAMES)):
        cells = ", ".join(f"{name}: {_yaml_float(v)}" for name, v in zip(_ENTRY_NAMES, row))
        lines.append(f"- {{{cells}}}")
    if scaling is not None:
        lines.append("physical:")
        lines += [f"  {key}: {_yaml_float(v)}" for key, v in zip(PHYSICAL_FIELDS, astuple(scaling))]
    return "\n".join(lines) + "\n"


def _decode_text(data: bytes, where) -> str:
    """``data`` as UTF-8 text; a `SpectrumFileError` names ``where`` and the line if it is not."""
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise SpectrumFileError(f"{where}:{line}: not UTF-8 text") from exc


def load_spectrum(path) -> tuple[DiscreteSpectrum, PhysicalScaling | None]:
    text = _decode_text(Path(path).read_bytes(), path)
    try:
        return parse_spectrum_document(text)
    except SpectrumFileError as exc:
        raise SpectrumFileError(f"{path}: {exc}") from exc


def save_spectrum(path, spectrum: DiscreteSpectrum, scaling: PhysicalScaling | None = None):
    Path(path).write_text(format_spectrum_document(spectrum, scaling))


def format_signal_csv(signal: SampledSignal) -> str:
    lines = ["t,re,im,abs"]
    times = signal.grid.times
    for t, q in zip(times, signal.samples):
        lines.append(f"{float(t)!r},{float(q.real)!r},{float(q.imag)!r},{float(abs(q))!r}")
    return "\n".join(lines) + "\n"


def save_signal(path, signal: SampledSignal):
    Path(path).write_text(format_signal_csv(signal))


def load_signal(path) -> SampledSignal:
    """Read a signal CSV back into a uniform power-of-two sampled signal."""
    rows = _decode_text(Path(path).read_bytes(), path).strip().splitlines()
    if not rows or rows[0].strip() != "t,re,im,abs":
        raise SpectrumFileError(f"{path}: expected header 't,re,im,abs'")
    t, q = [], []
    for i, row in enumerate(rows[1:], start=2):
        parts = row.split(",")
        if len(parts) != 4:
            raise SpectrumFileError(f"{path}:{i}: expected 4 columns")
        try:
            values = [float(part) for part in parts]
        except ValueError as exc:
            raise SpectrumFileError(f"{path}:{i}: {exc}") from exc
        bad = [part for part, value in zip(parts, values) if not math.isfinite(value)]
        if bad:
            raise SpectrumFileError(f"{path}:{i}: non-finite value {bad[0].strip()!r}")
        t.append(values[0])
        q.append(complex(values[1], values[2]))
    t = np.asarray(t)
    n = len(t)
    if n < 2 or (n & (n - 1)) != 0:
        raise SpectrumFileError(f"{path}: sample count {n} is not a power of two")
    dt = (t[-1] - t[0]) / (n - 1)
    if dt <= 0 or not np.allclose(np.diff(t), dt, rtol=1e-6, atol=1e-12 * abs(dt)):
        raise SpectrumFileError(f"{path}: time axis is not uniformly ascending")
    grid = TimeGrid(t_start=float(t[0]), dt=float(dt), n_samples=n)
    return SampledSignal(grid=grid, samples=np.asarray(q))
