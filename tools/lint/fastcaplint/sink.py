"""R8: the telemetry sink rule.

``src/telemetry`` is observe-only: result-affecting code may *write*
metrics and trace events into the registry and tracer it was handed,
but a telemetry value flowing back into a result-zone expression
would let instrumentation change simulation results — exactly what
the instrumented-vs-uninstrumented byte-identity gates forbid. A result-zone
call that resolves into ``src/telemetry`` and is not on the write
surface below is a finding, waivable with ``telemetry-sink(reason)``
on the call statement.

Same heuristic resolution limits as R6: reads through unresolvable
object expressions (chained temporaries, function pointers) are
invisible. The runtime byte-identity `cmp` gates backstop what the
static rule cannot see.
"""

from .findings import Finding

# The write surface of src/telemetry: registration, commuting writes,
# trace appends, and file output. Everything else defined in the
# telemetry zone returns observed state and must not be called from a
# result zone.
_WRITE_SURFACE = frozenset((
    # registration
    "counter", "gauge", "histogram", "Registry", "Histogram",
    # commuting writes
    "add", "set", "setMax", "observe",
    # tracer appends and output
    "Tracer", "track", "span", "instant", "counterEvent",
    "writeJson", "jsonString",
))


def run(index, waiver_map, zone_map):
    """R8 findings over every result-zone call site."""
    findings = []
    for fn in index.functions:
        if zone_map.get(fn.relpath) != "result":
            continue
        for call in fn.calls:
            for tgt in index.resolve_call(call, fn):
                if tgt.zone != "telemetry":
                    continue
                if tgt.name in _WRITE_SURFACE:
                    continue
                ws = waiver_map.get(fn.relpath)
                if ws is not None and \
                        ws.waive(call.span, ("telemetry-sink",)):
                    break
                findings.append(Finding(
                    fn.relpath, call.line, call.col, "R8",
                    "telemetry read in result zone: '%s' resolves "
                    "to %s — telemetry is observe-only; its values "
                    "must never feed back into results" %
                    (call.name, tgt.qname),
                    call.span, tag="telemetry-sink"))
                break  # one finding per call site
    return findings
