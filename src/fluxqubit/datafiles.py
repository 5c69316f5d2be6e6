"""File formats: device configs, calibration files, QPT records, bundled data.

All formats are plain text.  Device configuration uses an INI-style
key-value schema (section `[device]`, experiment sections per subcommand);
calibration files are `name = value` lines; tomography records are 36
lines of `prep basis probability shots`.
"""

from __future__ import annotations

import configparser
import math
from importlib import resources
from typing import Optional

import numpy as np

from .pulsesim import DeviceParams, TlsDip
from .qcore import parse_matrix
from .tomography import AXIS_LABELS, MeasurementRecord, entry_index

REFERENCE_GATES = ("X90", "Y-90", "T", "S", "H")

# Benchmark average-gate-fidelity values reproduced by the bundled
# reference process matrices (see tools/make_reference_channels.py).
REFERENCE_FIDELITIES = {
    "X90": 0.9565,
    "Y-90": 0.9623,
    "T": 0.9375,
    "S": 0.8893,
    "H": 0.9136,
}

_REFERENCE_FILES = {
    "X90": "choi_x90.txt",
    "Y-90": "choi_ym90.txt",
    "T": "choi_t.txt",
    "S": "choi_s.txt",
    "H": "choi_h.txt",
}

BUNDLED_DEVICES = ("device_swap.cfg", "device_demux.cfg")


def _data_text(name: str) -> str:
    return (resources.files("fluxqubit") / "data" / name).read_text(encoding="utf-8")


def load_reference_choi(gate: str) -> np.ndarray:
    """One of the bundled reference process matrices, by gate name."""
    if gate not in _REFERENCE_FILES:
        raise ValueError(f"no reference matrix for {gate!r}; known: {REFERENCE_GATES}")
    return parse_matrix(_data_text(_REFERENCE_FILES[gate]))


# ---------------------------------------------------------------------------
# Device configuration
# ---------------------------------------------------------------------------

def _parse_tls_dips(text: str):
    dips = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        center, width, t1 = (float(tok) for tok in chunk.split(":"))
        dips.append(TlsDip(center_ghz=center, width_mhz=width, t1_dip_us=t1))
    return tuple(dips)


def device_from_config(parser: configparser.ConfigParser) -> DeviceParams:
    if "device" not in parser:
        raise ValueError("config is missing the [device] section")
    section = parser["device"]
    try:
        return DeviceParams(
            f_max=section.getfloat("f_max_ghz"),
            i_offset=section.getfloat("i_offset_ua"),
            i_period=section.getfloat("i_period_ua"),
            i_idle=section.getfloat("i_idle_ua"),
            f_cw=section.getfloat("f_cw_ghz"),
            rabi_per_volt=section.getfloat("rabi_mhz_per_volt"),
            t1=section.getfloat("t1_us", fallback=math.inf),
            t2=section.getfloat("t2_us", fallback=math.inf),
            tls_dips=_parse_tls_dips(section.get("tls_dips", fallback="")),
            visibility=section.getfloat("visibility", fallback=1.0),
            readout_f=section.getfloat("readout_f_ghz", fallback=0.0),
        )
    except (TypeError, ValueError) as exc:
        raise ValueError(f"invalid [device] section: {exc}") from exc


def read_config(path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    with open(path, encoding="utf-8") as fh:
        parser.read_file(fh)
    return parser


def read_config_text(text: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.read_string(text)
    return parser


def load_device(path) -> DeviceParams:
    return device_from_config(read_config(path))


def bundled_config_text(name: str) -> str:
    if name not in BUNDLED_DEVICES:
        raise ValueError(f"no bundled config {name!r}; known: {BUNDLED_DEVICES}")
    return _data_text(name)


def load_bundled_device(name: str) -> DeviceParams:
    return device_from_config(read_config_text(bundled_config_text(name)))


# ---------------------------------------------------------------------------
# Calibration files
# ---------------------------------------------------------------------------

def format_calibration(cal) -> str:
    return (
        f"delta_i_res_uA = {cal.delta_i_res!r}\n"
        f"t_pi_ns = {cal.t_pi!r}\n"
        f"axis_period_ns = {cal.axis_period!r}\n"
        f"phase_offset_rad = {cal.phase_offset!r}\n"
    )


def parse_calibration(text: str) -> dict:
    values = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        values[key.strip()] = float(value)
    required = {"delta_i_res_uA", "t_pi_ns", "axis_period_ns", "phase_offset_rad"}
    missing = required - values.keys()
    if missing:
        raise ValueError(f"calibration file is missing {sorted(missing)}")
    return values


# ---------------------------------------------------------------------------
# Tomography record files: 36 lines of (prep, basis, probability, shots)
# ---------------------------------------------------------------------------

def format_measurement_record(record: MeasurementRecord, header_lines=()) -> str:
    out = [f"# {line}" for line in header_lines]
    shots_text = "inf" if record.shots is None else str(record.shots)
    for prep in AXIS_LABELS:
        for basis in AXIS_LABELS:
            value = float(record.entries[entry_index(prep, basis)])
            out.append(f"{prep} {basis} {value!r} {shots_text}")
    return "\n".join(out) + "\n"


def parse_measurement_record(text: str) -> MeasurementRecord:
    entries = np.full(36, np.nan)
    shots: Optional[int] = None
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        prep, basis, value, shots_text = line.split()
        entries[entry_index(prep, basis)] = float(value)
        shots = None if shots_text == "inf" else int(shots_text)
    if np.any(np.isnan(entries)):
        raise ValueError("measurement record is missing entries")
    return MeasurementRecord(entries=entries, shots=shots)
