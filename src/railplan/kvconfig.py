"""Flat key=value config files: one assignment per line, ``#`` comments."""

from __future__ import annotations

from pathlib import Path


def parse_kv(text: str, source: str = "<string>") -> dict[str, str]:
    """Parse ``key = value`` lines into a string dict.

    Blank lines and comments are skipped.  Duplicate keys and lines without
    an ``=`` are rejected so configs stay unambiguous.
    """
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ValueError(f"{source}:{lineno}: empty key")
        if key in out:
            raise ValueError(f"{source}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def load_kv(path: str | Path) -> dict[str, str]:
    path = Path(path)
    return parse_kv(path.read_text(), source=str(path))


def coerce_bool(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("1", "true", "yes", "y"):
        return True
    if lowered in ("0", "false", "no", "n"):
        return False
    raise ValueError(f"not a boolean: {value!r}")
