"""RPL002 positive fixture: rule mutations that skip the version bump."""


class PortQosPolicy:
    def __init__(self):
        self._rules = []
        self._sorted_rules = []
        self._version = 0

    def _resort(self):
        self._sorted_rules = sorted(self._rules, key=repr)
        self._version += 1

    def install(self, rule):
        self._rules.append(rule)
        self._resort()

    def sneaky_replace(self, rules):
        # Mutation with no bump: the compiled index cache goes stale.
        self._rules = list(rules)

    def sneaky_pop(self):
        # Same bug through a list mutator call.
        self._rules.pop()

    def sneaky_splice(self, rank):
        # A splice out of the sorted view with no bump: the cached index
        # still classifies with the rule.
        del self._sorted_rules[rank]
