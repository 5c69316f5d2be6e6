"""Bundled data: the device configs and the per-gate QPT fidelity targets.

Device configuration uses an INI-style key-value schema (section
`[device]`).
"""

from __future__ import annotations

import configparser
import math
from importlib import resources

from .pulsesim import DeviceParams, TlsDip

# Per-gate QPT average gate fidelities (mean 0.932, the abstract's "around
# 93%"): the target that the imperfection model is to be fitted to. Their
# provenance cannot be checked offline, so they are a target, not data.
REFERENCE_FIDELITIES = {
    "X90": 0.9565,
    "Y-90": 0.9623,
    "T": 0.9375,
    "S": 0.8893,
    "H": 0.9136,
}

BUNDLED_DEVICES = ("device_swap.cfg", "device_demux.cfg")


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
        )
    except (TypeError, ValueError) as exc:
        raise ValueError(f"invalid [device] section: {exc}") from exc


def load_bundled_device(name: str) -> DeviceParams:
    """DeviceParams from one of the bundled configs, by file name."""
    if name not in BUNDLED_DEVICES:
        raise ValueError(f"no bundled config {name!r}; known: {BUNDLED_DEVICES}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.read_string((resources.files("fluxqubit") / "data" / name).read_text(encoding="utf-8"))
    return device_from_config(parser)
