"""The names the benchmark's tracer wraps must exist in the program."""

from pathlib import Path


def test_tracer_finds_every_wrapped_name(monkeypatch):
    """perfbench/tracing.py reports a per-layer metric as null when a name
    it wraps is missing, and the benchmark run then prints a malformed
    result line."""
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parent.parent / "perfbench"))
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.absent == set()
    finally:
        tracer.uninstall()
