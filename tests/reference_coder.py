"""A bottom-up reference coder for the rule set, for tests.

`reference_codes` codes every node of an arena from its children's codes,
visiting refs in ascending order, which is topological (see `ocbsl.dag`):
the scheme of Aho, Hopcroft and Ullman's tree-isomorphism algorithm, run
on the DAG.  It has no schedule, splice or seam, and shares no code with
`ocbsl.normalize`.  A join merges the member list of every join-class
child again, so nested joins cost quadratic time: it is an oracle up to
about 2^12 nodes, not a fast path.
"""


def reference_codes(payload):
    """A code per ref of an arena's payloads, equal exactly for equal terms.

    Codes 0 and 1 are the constants; class k has the codes 2k and 2k + 1
    and is keyed by a variable's name or a join's sorted member codes.
    """
    keys = [None]  # class k -> its key; class 0 is the constants
    index = {"0": 0, "1": 1}  # key -> its code
    codes = []
    for p in payload:
        if type(p) is int:  # a negation: A6, A10 and A11 hold by pairing
            codes.append(codes[p] ^ 1)
            continue
        if type(p) is tuple:  # a join
            merged = set()
            for r in p:
                c = codes[r]
                if c & 1 or type(keys[c >> 1]) is not tuple:
                    merged.add(c)
                else:  # A2: a join child's members
                    merged.update(keys[c >> 1])
            merged.discard(0)  # A5
            if 1 in merged or any(c ^ 1 in merged for c in merged) or any(  # A4, A7
                c & 1 and type(keys[c >> 1]) is tuple and merged.issuperset(keys[c >> 1])  # A9
                for c in merged
            ):
                codes.append(1)
                continue
            if len(merged) < 2:  # the empty join is 0; A2b
                codes.append(max(merged, default=0))
                continue
            p = tuple(sorted(merged))
        code = index.get(p)  # a leaf's text, or a join's member codes
        if code is None:
            code = index[p] = 2 * len(keys)
            keys.append(p)
        codes.append(code)
    return codes
