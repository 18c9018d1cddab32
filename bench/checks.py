"""Correctness checks of benchmark answers.

Every answer is compared with the reference recorded in ``reference.json``
at the commit that defined the benchmark, and with an independent fact
where one exists: an oracle witness must have the target as its set of
lengths, a closure verdict must match ``verify.THEOREM_TABLE`` and its
failing sumset must be the sum of its witness pair, and a Davenport
constant of a group of rank at most 2, or of a p-group, must equal
1 + sum(n_i - 1).
"""

from __future__ import annotations

from functools import lru_cache


def _closed_form_davenport(factors: tuple[int, ...]) -> int | None:
    """1 + sum(n_i - 1) where it is a theorem (rank <= 2 or a p-group)."""
    if not factors:
        return 1
    primes = set()
    for n in factors:
        d = 2
        while d * d <= n:
            while n % d == 0:
                primes.add(d)
                n //= d
            d += 1
        if n > 1:
            primes.add(n)
    if len(factors) <= 2 or len(primes) == 1:
        return 1 + sum(n - 1 for n in factors)
    return None


class Checker:
    """Checks answers; ``zslen`` is imported only when a check needs it,
    after the measured run has ended."""

    def __init__(self, reference: dict):
        self.reference = reference

    @lru_cache(maxsize=None)
    def _witness_lengths(self, group: str, witness: str) -> str:
        import zslen

        g = zslen.parse_group(group)
        return ",".join(map(str, zslen.length_set(zslen.parse_sequence(g, witness))))

    def _theorem_table(self) -> dict:
        from zslen.verify import THEOREM_TABLE

        return dict(THEOREM_TABLE)

    def check(self, key: str, query: dict, out: dict) -> str | None:
        """None when the answer is right, else the reason it is wrong."""
        ref = self.reference.get(key)
        if ref is None:
            return f"no reference answer for {key}"
        kind = query["kind"]
        if kind == "decide":
            if (out["verdict"], out["witness"]) != (ref["verdict"], ref["witness"]):
                return f"verdict/witness {out['verdict']!r} {out['witness']!r} != reference"
            if out["verdict"] == "realizable":
                got = self._witness_lengths(query["group"], out["witness"])
                if got != query["set"]:
                    return f"witness has set of lengths {{{got}}}, not {{{query['set']}}}"
            return None
        if kind == "closed":
            if out != ref:
                return f"closure report {out} != reference {ref}"
            table = self._theorem_table()
            if query["group"] in table and query["bound"] == 12:
                if out["verdict"] != table[query["group"]]:
                    return f"verdict {out['verdict']} != THEOREM_TABLE {table[query['group']]}"
            if out["verdict"] == "NOT-CLOSED":
                left, right = out["witness_pair"]
                total = sorted({a + b for a in left for b in right})
                if total != out["failed_sumset"]:
                    return "failed sumset is not the sum of the witness pair"
            return None
        if kind == "atoms":
            if out != ref:
                return f"{kind} answer {out} != reference {ref}"
            factors = tuple(int(p[1:]) for p in query["group"].split("x"))
            closed = _closed_form_davenport(factors)
            if closed is not None and out["davenport"] != closed:
                return f"Davenport constant {out['davenport']} != closed form {closed}"
            return None
        if kind == "catenary":
            if out != ref:
                return f"catenary answer {out} != reference {ref}"
            return None
        return f"unknown query kind {kind!r}"
