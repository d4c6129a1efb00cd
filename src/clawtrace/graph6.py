"""graph6 encoding/decoding (headerless ASCII variant).

Order byte is n+63 for n <= 62; orders 63 and 64 use the standard '~' escape
with an 18-bit big-endian order field.  Edge bits run over the upper triangle
in column order (0,1),(0,2),(1,2),(0,3),... packed into 6-bit groups, each
group offset by 63.
"""
from __future__ import annotations

from .errors import InvalidParams, OrderOutOfRange
from .graph import Graph


def encode(g: Graph) -> str:
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + "".join(
            chr(((n >> shift) & 63) + 63) for shift in (12, 6, 0)
        )
    bits = []
    for j in range(1, n):
        col = g.adj[j]
        for i in range(j):
            bits.append(col >> i & 1)
    while len(bits) % 6:
        bits.append(0)
    body = "".join(
        chr((bits[k] << 5 | bits[k + 1] << 4 | bits[k + 2] << 3
             | bits[k + 3] << 2 | bits[k + 4] << 1 | bits[k + 5]) + 63)
        for k in range(0, len(bits), 6)
    )
    return head + body


def decode(text: str) -> Graph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise InvalidParams("empty graph6 string")
    if any(not (63 <= ord(c) <= 126) for c in s):
        raise InvalidParams(f"graph6 byte out of range in {s!r}")
    if s[0] == "~":
        if len(s) < 4 or s[1] == "~":
            raise InvalidParams("unsupported graph6 order form")
        n = ((ord(s[1]) - 63) << 12) | ((ord(s[2]) - 63) << 6) | (ord(s[3]) - 63)
        body = s[4:]
    else:
        n = ord(s[0]) - 63
        body = s[1:]
    if not 1 <= n <= 64:
        raise OrderOutOfRange(f"graph6 order {n} outside 1..64")
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise InvalidParams(
            f"graph6 body length {len(body)} wrong for order {n}"
        )
    bitstream = []
    for c in body:
        val = ord(c) - 63
        bitstream.extend((val >> 5 & 1, val >> 4 & 1, val >> 3 & 1,
                          val >> 2 & 1, val >> 1 & 1, val & 1))
    if any(bitstream[nbits:]):
        raise InvalidParams("nonzero padding bits in graph6 body")
    rows = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bitstream[k]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            k += 1
    return Graph(tuple(rows))
