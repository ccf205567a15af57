"""The enumeration closure as it was before it knitted only AR-quiver
neighbours, used only by the tests.

`fovea.modules.enumerate_indecomposables` takes the radical of a listed N
only when N is projective and its socle quotient only when N is
injective; every other neighbour comes from an almost split sequence.
`reference_enumerate_indecomposables` is the older full closure, which
also adds rad N and N/soc N for every listed N.  Both certify the list
with the same hom-dimension check, so on every input they must return
the same modules in the same order, with the same completeness and notes.
"""

from __future__ import annotations

from fovea.modules import (
    DEFAULT_SEED,
    DecompositionError,
    Enumeration,
    Module,
    PairCache,
    _is_nakayama,
    _is_projective_vertex,
    _sequence_failures,
    almost_split_sequence,
    decompose,
    dual_module,
    injective,
    is_isomorphic_indec,
    projective,
    radical_submodule,
    simple,
    socle_quotient,
)
from fovea.quiver import BoundQuiver, path_basis


def reference_enumerate_indecomposables(bq: BoundQuiver, dim_cap: int = 40, count_cap: int = 80,
                                        seed: int = DEFAULT_SEED) -> Enumeration:
    """Close the simples, projectives and injectives under radicals,
    socle quotients and, off the Nakayama case, tau^{+-1} and the middle
    terms of the almost split sequences at every listed module."""
    light = _is_nakayama(bq)
    notes: list[str] = []
    found: list[Module] = []
    seen: set[Module] = set()
    known: dict[Module, Module] = {}
    parts: dict[Module, list[tuple[Module, int]]] = {}
    ending: dict[Module, tuple[Module, Module]] = {}
    knit_in: set[Module] = set()
    knit_out: set[Module] = set()
    cache = PairCache()
    complete = True

    def add(candidate: Module) -> list[Module]:
        nonlocal complete
        new = []
        if candidate.is_zero() or not complete or candidate in seen:
            return new
        if candidate.total_dim > 4 * dim_cap:
            complete = False
            notes.append(f"candidate of dimension {candidate.total_dim} abandoned")
            return new
        try:
            dec = decompose(candidate, seed=seed, cache=cache)
        except DecompositionError as e:
            complete = False
            notes.append(str(e))
            return new
        listed = []
        for piece, count in dec.summands():
            if piece.total_dim > dim_cap:
                complete = False
                notes.append(f"dimension cap {dim_cap} hit")
                continue
            if piece not in known:
                match = next((m for m in found if is_isomorphic_indec(piece, m, cache)), None)
                if match is None:
                    if len(found) >= count_cap:
                        complete = False
                        notes.append(f"count cap {count_cap} hit")
                        continue
                    match = piece
                    found.append(piece)
                    seen.add(piece)
                    new.append(piece)
                known[piece] = match
            listed.append((known[piece], count))
        if complete:
            parts[candidate] = listed
        seen.add(candidate)
        return new

    queue: list[Module] = []
    for v in bq.vertices:
        queue.extend(add(simple(bq, v)))
    for v in bq.vertices:
        queue.extend(add(projective(bq, v)))
    for v in bq.vertices:
        queue.extend(add(injective(bq, v)))

    processed = 0
    while queue and complete:
        n = queue.pop(0)
        processed += 1
        queue.extend(add(radical_submodule(n)[0]))
        queue.extend(add(socle_quotient(n)[0]))
        if not light and complete:
            if n not in knit_in and _is_projective_vertex(n) is None:
                seq = almost_split_sequence(n, cache)
                queue.extend(add(seq.middle))
                queue.extend(add(seq.tau))
                ending[n] = (known.get(seq.tau, seq.tau), seq.middle)
                if seq.tau in known:
                    knit_out.add(known[seq.tau])
            dual_n = dual_module(n)
            if (complete and n not in knit_out
                    and _is_projective_vertex(dual_n) is None):
                seq = almost_split_sequence(dual_n, cache)
                tau_inv = dual_module(seq.tau)
                middle = dual_module(seq.middle)
                queue.extend(add(middle))
                queue.extend(add(tau_inv))
                if tau_inv in known:
                    knit_in.add(known[tau_inv])
                    ending.setdefault(known[tau_inv], (n, middle))
        if processed > 4 * count_cap:
            complete = False
            notes.append("closure did not stabilize")
            break

    def listed_parts(m: Module) -> list[tuple[Module, int]]:
        if m.is_zero():
            return []
        return parts[m] if m in parts else [(known[m], 1)]

    if complete and light and len(found) != path_basis(bq).total_dim:
        complete = False
        notes.append(f"light closure lists {len(found)} classes, "
                     f"not dim A = {path_basis(bq).total_dim}")
    if complete and not light:
        for n in found:
            tau, e = ending[n] if n in ending else (None, radical_submodule(n)[0])
            failures = _sequence_failures(n, tau, listed_parts(e), found, cache)
            if failures:
                complete = False
                notes.append("verification failed: " + "; ".join(failures))
                break

    found.sort(key=lambda m: m.sort_key())
    return Enumeration(bq, found, complete, notes)
