"""VCD waveform capture from the RTL simulator.

"The Renode emulator also allows us to capture the waveforms from the
CFU operation, which is extremely useful for tracking down errors in the
hardware design" (Section II-E).  :class:`VcdWriter` attaches to a
:class:`~repro.rtl.sim.Simulator` as a tracer and emits a standard
Value Change Dump viewable in GTKWave.
"""

from __future__ import annotations

import io

_ID_CHARS = "".join(chr(c) for c in range(33, 127))


class VcdWriter:
    """Streams signal changes to a file-like object in VCD format."""

    def __init__(self, signals, stream=None, timescale="1ns", module="top"):
        self.signals = list(signals)
        self.stream = stream if stream is not None else io.StringIO()
        self._ids = {}
        self._last = {}
        self._header_done = False
        self.timescale = timescale
        self.module = module
        for index, signal in enumerate(self.signals):
            self._ids[signal] = self._make_id(index)

    @staticmethod
    def _make_id(index):
        base = len(_ID_CHARS)
        chars = []
        while True:
            chars.append(_ID_CHARS[index % base])
            index //= base
            if not index:
                break
        return "".join(chars)

    def _write_header(self):
        w = self.stream.write
        w(f"$timescale {self.timescale} $end\n")
        w(f"$scope module {self.module} $end\n")
        for signal in self.signals:
            w(f"$var wire {signal.width} {self._ids[signal]} {signal.name} $end\n")
        w("$upscope $end\n$enddefinitions $end\n")
        self._header_done = True

    def _emit(self, signal, value):
        ident = self._ids[signal]
        if signal.width == 1:
            self.stream.write(f"{value & 1}{ident}\n")
        else:
            self.stream.write(f"b{value:b} {ident}\n")

    def __call__(self, time, simulator):
        """Simulator tracer hook: record changed signals at ``time``."""
        if not self._header_done:
            self._write_header()
            self.stream.write("#0\n")
            for signal in self.signals:
                value = simulator.peek(signal)
                self._last[signal] = value
                self._emit(signal, value)
        changed = [
            (signal, simulator.peek(signal)) for signal in self.signals
            if simulator.peek(signal) != self._last.get(signal)
        ]
        if not changed:
            return
        self.stream.write(f"#{time}\n")
        for signal, value in changed:
            self._last[signal] = value
            self._emit(signal, value)

    def text(self):
        if not self._header_done:
            self._write_header()
        if isinstance(self.stream, io.StringIO):
            return self.stream.getvalue()
        raise TypeError("text() only available for in-memory streams")


def capture_cfu_waveform(rtl_cfu, operations, extra_signals=()):
    """Run an op sequence on a CFU (a bare ``RtlCfu`` or an
    ``RtlCfuAdapter``) and return the VCD text."""
    from ..cfu.rtl import RtlCfuAdapter

    adapter = (rtl_cfu if isinstance(rtl_cfu, RtlCfuAdapter)
               else RtlCfuAdapter(rtl_cfu))
    signals = adapter.rtl.ports.all() + list(extra_signals)
    writer = VcdWriter(signals, module=adapter.rtl.name.replace("-", "_"))
    adapter.sim.add_tracer(writer)
    results = [adapter.execute(*op) for op in operations]
    return writer.text(), results
