"""Deterministic line-delimited record output.

A record is a block of `key: value` lines opened by `record: <type>`
and closed by one blank line.  Field order is fixed by the emitters
here, values are rendered through one formatter, and the records mode
never prints timing, so identical runs are byte-identical.
"""

from __future__ import annotations

# printed in every check report, zero or not; other reasons follow, sorted
SKIP_REASONS = ("improper", "singular", "rank_nd_lt_2", "duplicate")


def fmt_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (list, tuple)):
        return ",".join(fmt_value(x) for x in v) if v else "-"
    if isinstance(v, dict):
        return ";".join(f"{k}={fmt_value(val)}" for k, val in sorted(v.items())) \
            if v else "-"
    if v is None:
        return "-"
    return str(v)


class RecordWriter:
    def __init__(self, out, mode: str = "records"):
        self.out = out
        self.mode = mode  # records | text

    def emit(self, rtype: str, fields):
        print(f"record: {rtype}", file=self.out)
        for key, value in fields:
            print(f"{key}: {fmt_value(value)}", file=self.out)
        print(file=self.out)

    def emit_report(self, report):
        """One check-report record of a `verify.CheckReport`."""
        fields = [
            ("check", report.check),
            ("space", report.space),
            ("mode", report.mode),
            ("seed", report.seed),
            ("samples-requested", report.samples_requested),
            ("sampled", report.sampled),
            ("applicable", report.applicable),
            ("passed", report.passed),
            ("failed", report.failed),
        ]
        for reason in SKIP_REASONS:
            fields.append((f"skipped-{reason.replace('_', '-')}",
                           report.skipped.get(reason, 0)))
        for reason in sorted(report.skipped):
            if reason not in SKIP_REASONS:
                fields.append((f"skipped-{reason.replace('_', '-')}",
                               report.skipped[reason]))
        for key in sorted(report.info):
            fields.append((f"info-{key.replace('_', '-')}", report.info[key]))
        fields.append(("witness-count", len(report.witnesses)))
        fields.append(("exhibit-count", len(report.exhibits)))
        for w in report.witnesses:
            fields.append(("witness", {k: w[k] for k in sorted(w)}))
        for e in report.exhibits:
            fields.append(("exhibit", {k: e[k] for k in sorted(e)}))
        if report.experimental:
            fields.append(("status", "experimental"))
        else:
            fields.append(("status", "pass" if report.failed == 0 else "fail"))
        if self.mode == "text":
            fields.append(("duration-ms", f"{report.duration * 1000:.1f}"))
        self.emit("check-report", fields)
