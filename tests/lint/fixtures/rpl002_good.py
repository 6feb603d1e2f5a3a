"""RPL002 negative fixture: every mutation path bumps (or is a helper
whose callers all bump) — the real PortQosPolicy shape."""


class PortQosPolicy:
    def __init__(self):
        self._rules = []
        self._sorted_rules = []
        self._version = 0

    def _resort(self):
        self._sorted_rules = sorted(self._rules, key=repr)
        self._version += 1

    def _bump(self):
        self._version += 1

    def _attach(self, rule):
        # Helper: mutates without bumping, but every caller resorts.
        self._rules.append(rule)

    def install(self, rule):
        self._attach(rule)
        self._sorted_rules.append(rule)
        self._bump()

    def install_many(self, rules):
        for rule in rules:
            self._attach(rule)
        self._resort()

    def remove(self, rule_id):
        remaining = [rule for rule in self._rules if rule != rule_id]
        if len(remaining) == len(self._rules):
            return False
        self._rules = remaining
        self._bump()
        return True

    def clear(self):
        if not self._rules:
            return
        self._rules.clear()
        self._sorted_rules.clear()
        self._version += 1
