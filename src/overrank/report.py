"""Run configuration and machine-parseable reports.

A Report is a flat sequence of typed records (dicts of scalars).  The
json-lines form is the lossless interchange format; the text form renders
the same records for terminals and simple tooling.  Big integers travel as
decimal strings, rationals as "p/q", so nothing is squeezed through floats.
"""

from __future__ import annotations

import json
import platform
import shlex
import sys
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction

from . import DEFAULT_PRECISION, __version__

__all__ = ["Report", "RunConfig", "environment_fingerprint", "fmt_value"]

REPORT_SCHEMA = 1


@dataclass(frozen=True)
class RunConfig:
    precision_bits: int = DEFAULT_PRECISION
    n_max: int = 3000
    cache_path: str | None = None

    def __post_init__(self):
        for name in ("precision_bits", "n_max"):
            if not isinstance(value := getattr(self, name), int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.precision_bits < 64:
            raise ValueError("precision_bits must be >= 64")
        if self.n_max < 0:
            raise ValueError("n_max must be >= 0")


def environment_fingerprint() -> dict:
    """Package, Python and platform; mpmath's version once mpmath is loaded."""
    env = {
        "package": f"overrank-{__version__}",
        "python": platform.python_version(),
        # platform.platform()'s Linux form, without its `uname -p` subprocess
        "platform": "-".join([platform.system(), platform.release(), platform.machine(),
                              "with", "".join(platform.libc_ver())]).rstrip("-"),
    }
    if mpmath := sys.modules.get("mpmath"):
        env["mpmath"] = mpmath.__version__
    return env


def fmt_value(v) -> str:
    """Render a scalar for report records: exact decimal for int/Fraction."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    # no mpf exists until mpmath is loaded, and exact work never loads it
    if (mpmath := sys.modules.get("mpmath")) and isinstance(v, mpmath.mpf):
        return mpmath.nstr(v, 20)
    return str(v)


@dataclass
class Report:
    command: str
    config: RunConfig
    inputs: dict = field(default_factory=dict)
    outputs: list[dict] = field(default_factory=list)
    timings: dict = field(default_factory=dict)
    environment: dict = field(default_factory=environment_fingerprint)

    def add(self, record: str, **fields) -> None:
        rec = {"record": record}
        rec.update(fields)
        self.outputs.append(rec)

    # -- lossless interchange form -------------------------------------
    def to_json_lines(self) -> str:
        lines = [json.dumps({"record": "header", "schema_version": REPORT_SCHEMA,
                             "command": self.command, "inputs": self.inputs},
                            sort_keys=True)]
        lines.append(json.dumps({"record": "config", **asdict(self.config)},
                                sort_keys=True))
        for rec in self.outputs:
            lines.append(json.dumps(rec, sort_keys=True))
        lines.append(json.dumps({"record": "timings", **self.timings}, sort_keys=True))
        lines.append(json.dumps({"record": "environment", **self.environment},
                                sort_keys=True))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_json_lines(cls, text: str) -> "Report":
        header = config = None
        outputs: list[dict] = []
        timings: dict = {}
        environment: dict = {}
        for line in text.strip().splitlines():
            rec = json.loads(line)
            try:
                kind = rec.pop("record")
            except (AttributeError, KeyError, TypeError):
                raise ValueError(f"report line is not an object with a 'record' key: "
                                 f"{line[:80]!r}") from None
            if kind == "header":
                header = rec
            elif kind == "config":
                if unknown := set(rec) - {f.name for f in fields(RunConfig)}:
                    raise ValueError(f"unknown config key {min(unknown)!r}")
                config = RunConfig(**rec)
            elif kind == "timings":
                timings = rec
            elif kind == "environment":
                environment = rec
            else:
                outputs.append({"record": kind, **rec})
        if header is None or config is None:
            raise ValueError("missing header or config record")
        if missing := {"command", "inputs", "schema_version"} - set(header):
            raise ValueError(f"header record lacks {min(missing)!r}")
        if type(schema := header["schema_version"]) is not int or schema != REPORT_SCHEMA:
            raise ValueError(f"report schema_version={schema!r} is unsupported "
                             f"(this version reads {REPORT_SCHEMA})")
        return cls(command=header["command"], config=config, inputs=header["inputs"],
                   outputs=outputs, timings=timings, environment=environment)

    # -- human-readable form -------------------------------------------
    def to_text(self) -> str:
        def kv(d: dict) -> str:
            # keep one record per line even for multi-line payloads
            parts = []
            for k, v in d.items():
                flat = fmt_value(v).replace("\n", "\\n")
                parts.append(f"{k}={shlex.quote(flat)}")
            return " ".join(parts)

        lines = [f"report schema={REPORT_SCHEMA} command={self.command}"]
        if self.inputs:
            lines.append("inputs " + kv(self.inputs))
        lines.append("config " + kv(asdict(self.config)))
        for rec in self.outputs:
            rec = dict(rec)
            kind = rec.pop("record")
            lines.append(f"{kind} " + kv(rec))
        lines.append("timings " + kv(self.timings))
        lines.append("environment " + kv(self.environment))
        lines.append("end")
        return "\n".join(lines) + "\n"
