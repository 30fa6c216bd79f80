"""Words in the four generators: layered factorizations of diagrams.

A layer is I^(x)a (x) Y (x) I^(x)b with Y one of X (crossing), A (cap),
U (cup); identity layers are implicit (padding only), so the identity word is
the empty layer sequence.  A word applies its layers bottom to top.
Evaluation composes the layers, accumulating deleted loops into a formal
delta power.

Text format (CLI): semicolon-separated "a:Y:b" bottom to top, a and b in
ASCII decimal digits, e.g. "0:A:1; 1:U:0"; whitespace may surround a
layer but not stand inside one; the empty string is the identity word.
"""

from __future__ import annotations

from typing import NamedTuple

from brauer.diagram import (_check_sizes, cap, compose, crossing, cup,
                            guard_cells, identity, tensor)
from brauer.rings import parse_natural


class Layer(NamedTuple):
    left: int
    gen: str
    right: int

    def in_width(self):
        return self.left + self.right + (0 if self.gen == "U" else 2)

    def out_width(self):
        return self.left + self.right + (0 if self.gen == "A" else 2)


class WordError(ValueError):
    pass


class Word(NamedTuple):
    domain: int
    layers: tuple


def make_word(domain, layers):
    """Validate valency chaining and build a Word.  Its widest boundary
    stays within the cell budget: nothing but a number backs the domain."""
    _check_sizes(WordError, "word", domain=domain)
    layers = tuple(Layer(a, g, b) for (a, g, b) in layers)
    width = widest = domain
    for lay in layers:
        _check_sizes(WordError, "layer", left=lay.left, right=lay.right)
        if lay.gen not in ("X", "A", "U"):
            raise WordError("bad layer %r" % (lay,))
        if lay.in_width() != width:
            raise WordError(
                "layer %r expects width %d, previous width is %d"
                % (lay, lay.in_width(), width)
            )
        width = lay.out_width()
        widest = max(widest, width)
    guard_cells((widest,), "a word of width %d" % widest, WordError)
    return Word(domain, layers)


_LAYER_DIAGRAMS = {}


def layer_diagram(lay):
    d = _LAYER_DIAGRAMS.get(lay)
    if d is None:
        a, g, b = lay
        mid = {"X": crossing, "A": cap, "U": cup}[g]()
        d = tensor(tensor(identity(a), mid), identity(b))
        _LAYER_DIAGRAMS[lay] = d
    return d


def evaluate_word(w):
    """Compose the layers bottom to top: returns (delta_power, Diagram)."""
    cur = identity(w.domain)
    delta_power = 0
    for lay in w.layers:
        if lay.in_width() != cur.l:
            raise WordError("layer %r does not fit on width %d" % (lay, cur.l))
        loops, cur = compose(layer_diagram(lay), cur)
        delta_power += loops
    return delta_power, cur


def _permutation_layers(pi, width):
    """X-layers (bottom to top) evaluating to the diagram of pi.

    Bubble sort: strand at position i must reach top position pi[i]; swap
    adjacent strands whose targets are out of order, recording each swap.
    """
    cur = list(pi)
    layers = []
    changed = True
    while changed:
        changed = False
        for i in range(len(cur) - 1):
            if cur[i] > cur[i + 1]:
                cur[i], cur[i + 1] = cur[i + 1], cur[i]
                layers.append(Layer(i, "X", width - 2 - i))
                changed = True
    return layers


def synthesize_word(d):
    """A word evaluating to (0, d): caps early, cups late, deterministic.

    Routing X-layers sort the bottom boundary so bottom arcs sit adjacent,
    caps remove them innermost first, cups then create the top arcs in
    staging position, and final X-layers route through strands and arcs to
    their true top positions.  Cups cannot come last outright: a word whose
    topmost layers are all cups only ever produces non-crossing top arcs, so
    diagrams like the (0,4) matching {0,2},{1,3} force routing above the
    cups.
    """
    k, l = d.k, d.l
    # pairs are ordered by their smaller end, so each list below is sorted.
    pairs = d.pairs
    through = [(a, b - k) for a, b in pairs if a < k <= b]
    bottoms = [(a, b) for a, b in pairs if b < k]
    tops = [(a - k, b - k) for a, b in pairs if a >= k]
    s = len(through)

    tau = [0] * k
    for j, (u, _v) in enumerate(through):
        tau[u] = j
    for i, (a, b) in enumerate(bottoms):
        tau[a] = s + 2 * i
        tau[b] = s + 2 * i + 1
    layers = _permutation_layers(tau, k)

    nb = len(bottoms)
    for i in range(nb):
        layers.append(Layer(s, "A", 2 * (nb - 1 - i)))

    nt = len(tops)
    for i in range(nt):
        layers.append(Layer(s + 2 * i, "U", 0))

    sigma_perm = [0] * l
    for j, (_u, v) in enumerate(through):
        sigma_perm[j] = v
    for i, (c, e) in enumerate(tops):
        sigma_perm[s + 2 * i] = c
        sigma_perm[s + 2 * i + 1] = e
    layers.extend(_permutation_layers(sigma_perm, l))

    # Every layer above is a Layer whose width chains from k by
    # construction, so make_word's checks are skipped: a trusted Word.
    return Word(k, tuple(layers))


def word_to_text(w):
    return "; ".join("%d:%s:%d" % lay for lay in w.layers)


def word_from_text(domain, text):
    layers = []
    text = text.strip()
    if text:
        for part in text.split(";"):
            part = part.strip()
            if any(c.isspace() for c in part):
                raise WordError("bad layer %r, no space is allowed inside "
                                "a layer" % (part,))
            fields = part.split(":")
            if len(fields) != 3:
                raise WordError("bad layer %r, expected a:Y:b" % (part,))
            a, g, b = fields
            try:
                layers.append((parse_natural(a), g, parse_natural(b)))
            except ValueError:
                raise WordError("bad layer %r, expected integers a and b in "
                                "a:Y:b" % (part,)) from None
    return make_word(domain, layers)
