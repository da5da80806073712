"""Characterization reports: recovered vs declared, with evidence."""


class ProbeEvidence:
    """One probe measurement and the conclusion drawn from it."""

    __slots__ = ("family", "name", "params", "observation", "conclusion")

    def __init__(self, family, name, params, observation, conclusion):
        self.family = family
        self.name = name
        self.params = params
        self.observation = observation
        self.conclusion = conclusion

    def to_dict(self):
        return {"family": self.family, "name": self.name,
                "params": self.params, "observation": self.observation,
                "conclusion": self.conclusion}

    def __repr__(self):
        return "ProbeEvidence(%s/%s: %s)" % (
            self.family, self.name, self.conclusion)


class CharacterizationReport:
    """Recovered configuration of one predictor, diffed vs declared.

    The diff runs over the intersection of declared keys and
    *conclusive* recovered keys (a recovered value of ``None`` means
    the probe could not decide — e.g. counter width under global
    history — and is never counted as a mismatch).  Declared keys the
    probes do not measure are ignored; recovered keys nobody declared
    are informational.
    """

    def __init__(self, label, recovered, declared, evidence,
                 simulations=0, records=0):
        self.label = label
        self.recovered = recovered
        self.declared = declared
        self.evidence = evidence
        self.simulations = simulations
        self.records = records

    @property
    def mismatches(self):
        """``[(key, declared_value, recovered_value), ...]``."""
        rows = []
        for key in sorted(self.declared):
            if key not in self.recovered:
                continue
            got = self.recovered[key]
            if got is None:
                continue
            want = self.declared[key]
            if got != want:
                rows.append((key, want, got))
        return rows

    @property
    def ok(self):
        return not self.mismatches

    def to_dict(self):
        return {
            "label": self.label,
            "recovered": dict(self.recovered),
            "declared": dict(self.declared),
            "mismatches": [
                {"key": key, "declared": want, "recovered": got}
                for key, want, got in self.mismatches],
            "ok": self.ok,
            "simulations": self.simulations,
            "records": self.records,
            "evidence": [row.to_dict() for row in self.evidence],
        }

    def summary(self):
        """One-line recovered-parameter digest."""
        rec = self.recovered
        if not rec.get("buffered"):
            bits = ["non-buffered"]
        else:
            entries = rec.get("entries")
            ways = rec.get("associativity")
            if entries is None:
                geometry = "entries>=search-ceiling"
            elif ways is None:
                geometry = "%d entries" % entries
            elif ways == entries:
                geometry = "%d entries, fully assoc" % entries
            else:
                geometry = "%d entries, %d-way" % (entries, ways)
            bits = [geometry]
            if rec.get("counter_bits") is not None:
                bits.append("%d-bit ctr (t=%d)" % (
                    rec["counter_bits"], rec["threshold"]))
            if rec.get("replacement"):
                bits.append(rec["replacement"])
        bits.append("hist %s" % rec.get("history_depth"))
        bits.append("flush %s"
                    % ("hurts" if rec.get("flush_sensitive") else "free"))
        return ", ".join(bits)

    def render(self):
        lines = ["%s: %s" % (self.label, self.summary())]
        for key in sorted(self.recovered):
            value = self.recovered[key]
            marker = ""
            if key in self.declared and value is not None:
                marker = (" (declared %r)" % (self.declared[key],)
                          if self.declared[key] != value
                          else " [= declared]")
            lines.append("  %-16s %r%s" % (key, value, marker))
        if self.mismatches:
            lines.append("  MISMATCH: " + "; ".join(
                "%s declared %r but probes recovered %r"
                % (key, want, got)
                for key, want, got in self.mismatches))
        else:
            lines.append("  verdict: recovered parameters consistent "
                         "with declaration")
        lines.append("  probes: %d simulations, %d records"
                     % (self.simulations, self.records))
        return "\n".join(lines)

    def __repr__(self):
        return "CharacterizationReport(%s, ok=%s)" % (self.label,
                                                      self.ok)
