"""Independent brute-force oracles used to freeze expected values.

Everything here works on plain order tuples with nested loops and stays away
from the package's index tables, candidate caches, census engine, and min-cut
solver, so a disagreement points at a real defect rather than a shared bug.
"""
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from math import factorial


def all_profiles(n, k):
    return list(product(permutations(range(k)), repeat=n))


def table_evaluator(f):
    """Order-tuple evaluator of f's table, read in lexicographic profile order."""
    return dict(zip(all_profiles(f.n, f.k), f.table())).__getitem__


def plurality_tuple(prof):
    k = len(prof[0])
    counts = [0] * k
    for order in prof:
        counts[order[0]] += 1
    return max(range(k), key=lambda a: (counts[a], -a))


def borda_tuple(prof):
    k = len(prof[0])
    scores = [0] * k
    for order in prof:
        for p, alt in enumerate(order):
            scores[alt] += k - 1 - p
    return max(range(k), key=lambda a: (scores[a], -a))


def census_counts(evaluate, n, k, rs):
    """Direct window search per profile; evaluate takes a tuple of orders."""
    counts = {r: 0 for r in rs}
    total = 0
    for prof in all_profiles(n, k):
        total += 1
        out = evaluate(prof)
        min_width = None
        for w in range(2, k + 1):
            hit = False
            for i in range(n):
                pos = {a: p for p, a in enumerate(prof[i])}
                order = prof[i]
                for start in range(k - w + 1):
                    for window in permutations(order[start:start + w]):
                        cand = order[:start] + window + order[start + w:]
                        if cand == order:
                            continue
                        new = evaluate(prof[:i] + (cand,) + prof[i + 1:])
                        if pos[new] < pos[out]:
                            hit = True
                            break
                    if hit:
                        break
                if hit:
                    break
            if hit:
                min_width = w
                break
        if min_width is not None:
            for r in rs:
                if min_width <= min(r, k):
                    counts[r] += 1
    return total, counts


def distance_fraction(eval_f, eval_g, n, k):
    profs = all_profiles(n, k)
    diff = sum(1 for p in profs if eval_f(p) != eval_g(p))
    return Fraction(diff, len(profs))


@lru_cache(maxsize=None)
def monotone_family(n):
    """All monotone Boolean tables on {0,1}^n (Dedekind family)."""
    m = 1 << n
    family = []
    for code in range(1 << m):
        table = tuple(code >> z & 1 for z in range(m))
        ok = True
        for z in range(m):
            if not table[z]:
                continue
            for i in range(n):
                bit = 1 << i
                if not z & bit and not table[z | bit]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            family.append(table)
    return tuple(family)


def nearest_monotone_cost(cost_a, cost_b):
    """Minimum labeling cost over the whole Dedekind family."""
    m = len(cost_a)
    n = m.bit_length() - 1
    return min(
        sum(cost_a[z] if table[z] else cost_b[z] for z in range(m))
        for table in monotone_family(n)
    )


def monotone_distance(table):
    """Normalized Hamming distance to the nearest monotone table."""
    m = len(table)
    n = m.bit_length() - 1
    return min(
        Fraction(sum(1 for z in range(m) if table[z] != g[z]), m)
        for g in monotone_family(n)
    )


def influence_pair_fraction(evaluate, n, k, i, a, b):
    """P(outcome a flips to b when coordinate i is independently redrawn)."""
    perms = list(permutations(range(k)))
    profs = all_profiles(n, k)
    hits = 0
    for prof in profs:
        if evaluate(prof) != a:
            continue
        for replacement in perms:
            if evaluate(prof[:i] + (replacement,) + prof[i + 1:]) == b:
                hits += 1
    return Fraction(hits, len(profs) * len(perms))


def pair_probability(evaluate, n, k, width):
    """Exact success rate of the random width-window manipulation draw."""
    perms_all = list(permutations(range(k)))
    successes = 0
    total = 0
    for prof in product(perms_all, repeat=n):
        out = evaluate(prof)
        for i in range(n):
            pos = {a: p for p, a in enumerate(prof[i])}
            order = prof[i]
            for start in range(k - width + 1):
                for window in permutations(order[start:start + width]):
                    total += 1
                    cand = order[:start] + window + order[start + width:]
                    new = evaluate(prof[:i] + (cand,) + prof[i + 1:])
                    if pos[new] < pos[out]:
                        successes += 1
    return Fraction(successes, total)


def transition_counts(evaluate, n, k, i):
    """counts[(x, y)]: (profile, replacement of coordinate i) pairs moving x to y."""
    perms = list(permutations(range(k)))
    counts = {}
    for prof in all_profiles(n, k):
        x = evaluate(prof)
        for replacement in perms:
            y = evaluate(prof[:i] + (replacement,) + prof[i + 1:])
            counts[(x, y)] = counts.get((x, y), 0) + 1
    return counts


def refined_edge_counts(evaluate, n, k, i):
    """counts[(x, y, (c, d))]: profiles with outcome x whose swap of the adjacent
    alternatives c < d in coordinate i yields outcome y."""
    counts = {}
    for prof in all_profiles(n, k):
        x = evaluate(prof)
        order = prof[i]
        for p in range(k - 1):
            swapped = order[:p] + (order[p + 1], order[p]) + order[p + 2:]
            y = evaluate(prof[:i] + (swapped,) + prof[i + 1:])
            key = (x, y, (min(order[p], order[p + 1]), max(order[p], order[p + 1])))
            counts[key] = counts.get(key, 0) + 1
    return counts


def refined_edge_matrices(edges, k):
    """``(every, swap)`` of :func:`refined_edge_counts`' dict: per outcome
    pair a != b, its edges summed over all transpositions, and under the
    transposition of a and b."""
    every = [[sum(c for (x, y, _z), c in edges.items() if (x, y) == (a, b)) if a != b else 0
              for b in range(k)] for a in range(k)]
    swap = [[edges.get((a, b, (min(a, b), max(a, b))), 0) if a != b else 0
             for b in range(k)] for a in range(k)]
    return every, swap


def table_distance(f, g):
    """Fraction of profiles on which two SCFs of one shape disagree, from their tables."""
    pairs = list(zip(f.table(), g.table(), strict=True))
    return Fraction(sum(x != y for x, y in pairs), len(pairs))


def first_manipulation_pair(evaluate, n, k):
    """(profile, altered profile, voter) of the first manipulation, or None: the
    first profile in lexicographic order some voter can manipulate, its first
    such voter, and that voter's first gaining order in ``permutations`` order
    of its own."""
    for prof in all_profiles(n, k):
        out = evaluate(prof)
        for i in range(n):
            pos = {a: p for p, a in enumerate(prof[i])}
            for cand in permutations(prof[i]):
                altered = prof[:i] + (cand,) + prof[i + 1:]
                if pos[evaluate(altered)] < pos[out]:
                    return prof, altered, i
    return None


def top_of(order, H):
    return next(x for x in order if x in H)


def pair_mask(prof, a, b):
    """Bit c set when voter c ranks a above b."""
    return sum(1 << c for c, order in enumerate(prof) if order.index(a) < order.index(b))


def fiber_outcome_counts(evaluate, n, k, a, b):
    """Per preference mask, the profiles electing a and the profiles electing b."""
    count_a, count_b = [0] * (1 << n), [0] * (1 << n)
    for prof in all_profiles(n, k):
        out = evaluate(prof)
        if out == a:
            count_a[pair_mask(prof, a, b)] += 1
        elif out == b:
            count_b[pair_mask(prof, a, b)] += 1
    return count_a, count_b


def class_tables(evaluate, n, k, classes):
    """Per choice of one rank class for each of the last len(classes) voters
    (the first of them least significant), the outcomes of the profiles in
    the product of the chosen classes and then every ranking of each earlier
    voter, in that product's order."""
    perms = list(permutations(range(k)))
    m = len(classes)
    parts = []
    for choice in product(*(range(len(c)) for c in reversed(classes))):
        chosen = [voter[j] for voter, j in zip(classes, reversed(choice))]
        parts.append(bytes(evaluate(tuple(perms[r] for r in ranks[m:] + ranks[:m]))
                           for ranks in product(*chosen, *[range(len(perms))] * (n - m))))
    return parts


def rank_outcome_counts(evaluate, n, k, i):
    """Per ranking of voter i (in lexicographic order), the profiles electing each outcome."""
    perms = list(permutations(range(k)))
    counts = [[0] * k for _ in perms]
    for prof in all_profiles(n, k):
        counts[perms.index(prof[i])][evaluate(prof)] += 1
    return counts


def is_nonmanipulable_member(evaluate, n, k):
    """Whether f is a top_H dictator or a monotone two-valued function."""
    profs = all_profiles(n, k)
    outs = [evaluate(p) for p in profs]
    for i in range(n):
        for size in range(1, k + 1):
            for H in combinations(range(k), size):
                if all(top_of(p[i], H) == o for p, o in zip(profs, outs)):
                    return True
    image = sorted(set(outs))
    if len(image) != 2:
        return False
    a, b = image
    by_mask = {}
    for p, o in zip(profs, outs):
        if by_mask.setdefault(pair_mask(p, a, b), o) != o:
            return False
    return any(
        tuple(a if bit else b for bit in table) == tuple(by_mask[z] for z in range(1 << n))
        for table in monotone_family(n)
    )


def distance_to_nonmanip_fraction(evaluate, n, k):
    """Minimum disagreement over every top_H dictator and monotone two-valued function."""
    profs = all_profiles(n, k)
    outs = [evaluate(p) for p in profs]
    best = len(profs)
    for i in range(n):
        for size in range(1, k + 1):
            for H in combinations(range(k), size):
                best = min(best, sum(1 for p, o in zip(profs, outs) if top_of(p[i], H) != o))
    for a, b in combinations(range(k), 2):
        masks = [pair_mask(p, a, b) for p in profs]
        for table in monotone_family(n):
            best = min(best, sum(
                1 for z, o in zip(masks, outs) if (a if table[z] else b) != o
            ))
    return Fraction(best, len(profs))


def distance_to_nonmanip_bar_fraction(evaluate, n, k):
    """Minimum disagreement over one-coordinate functions and functions of at most two values."""
    profs = all_profiles(n, k)
    outs = [evaluate(p) for p in profs]
    best_agree = 0
    for i in range(n):
        groups = {}
        for p, o in zip(profs, outs):
            groups.setdefault(p[i], []).append(o)
        best_agree = max(best_agree, sum(
            max(g.count(x) for x in range(k)) for g in groups.values()
        ))
    for H in combinations(range(k), min(2, k)):
        best_agree = max(best_agree, sum(1 for o in outs if o in H))
    return Fraction(len(profs) - best_agree, len(profs))


def is_anonymous(evaluate, n, k):
    """Every profile elects what its rankings in sorted order elect."""
    return all(evaluate(prof) == evaluate(tuple(sorted(prof))) for prof in all_profiles(n, k))


def is_neutral(evaluate, n, k):
    """Renaming the alternatives by any permutation renames the outcome alike."""
    return all(
        evaluate(tuple(tuple(pi[x] for x in order) for order in prof)) == pi[evaluate(prof)]
        for pi in permutations(range(k)) for prof in all_profiles(n, k))


def local_dictator_profiles(evaluate, n, k, i, a, b):
    """Profiles where {a, b, c} is an adjacent block in coordinate i for some third c
    and every rearrangement of the block elects its top."""
    found = set()
    for prof in all_profiles(n, k):
        order = prof[i]
        for c in range(k):
            if c in (a, b):
                continue
            spots = sorted(order.index(x) for x in (a, b, c))
            if spots[2] - spots[0] != 2:
                continue
            lo = spots[0]
            if all(
                evaluate(prof[:i] + (order[:lo] + block + order[lo + 3:],) + prof[i + 1:])
                == block[0]
                for block in permutations((a, b, c))
            ):
                found.add(prof)
                break
    return found


def fiber_counts(evaluate, n, k, i, a, b, refined):
    """key -> [members, members on the a-to-b boundary] for the fibers of coordinate i.

    Plain: the key is the whole a-vs-b preference vector (+1 where a is above
    b); a member is on the boundary when its outcome is a and some other
    ranking of coordinate i yields b. Refined: only profiles with a directly
    above b in coordinate i, keyed by the vector without coordinate i; a
    member is on the boundary when its outcome is a and swapping that a-b
    block yields b.
    """
    perms = list(permutations(range(k)))
    counts = {}
    for prof in all_profiles(n, k):
        vector = tuple(1 if order.index(a) < order.index(b) else -1 for order in prof)
        order = prof[i]
        out = evaluate(prof)
        if refined:
            p = order.index(a)
            if p + 1 == k or order[p + 1] != b:
                continue
            key = vector[:i] + vector[i + 1:]
            swapped = order[:p] + (b, a) + order[p + 2:]
            hit = out == a and evaluate(prof[:i] + (swapped,) + prof[i + 1:]) == b
        else:
            key = vector
            hit = out == a and any(
                evaluate(prof[:i] + (r,) + prof[i + 1:]) == b for r in perms if r != order)
        entry = counts.setdefault(key, [0, 0])
        entry[0] += 1
        entry[1] += hit
    return counts


def sampler_draw(rng, evaluate, n, k, width):
    """One draw of the random-window experiment on order tuples: a profile
    index, a voter, a window start, then the window's alternatives shuffled.
    Returns (profile, altered, voter, success)."""
    orders = list(permutations(range(k)))
    index = rng.randrange(len(orders) ** n)
    digits = []
    for _ in range(n):
        index, d = divmod(index, len(orders))
        digits.append(d)
    profile = tuple(orders[d] for d in reversed(digits))
    i = rng.randrange(n)
    start = rng.randrange(k - width + 1)
    order = profile[i]
    window = list(order[start:start + width])
    rng.shuffle(window)
    altered = profile[:i] + (order[:start] + tuple(window) + order[start + width:],) + profile[i + 1:]
    return profile, altered, i, order.index(evaluate(altered)) < order.index(evaluate(profile))


def sampler_successes(evaluate, n, k, width, samples, seed, block):
    """Successes of ``samples`` draws in blocks of ``block``, block b drawn from
    ``Random(seed * 2**64 + b)``."""
    successes = 0
    for b, lo in enumerate(range(0, samples, block)):
        rng = random.Random(seed * (1 << 64) + b)
        for _ in range(min(block, samples - lo)):
            successes += sampler_draw(rng, evaluate, n, k, width)[3]
    return successes


def monotone_two_valued(n, k, seed):
    """(pair, fiber table) of a seeded monotone two-valued SCF: random labels,
    then per mask in increasing order, a if labeled a or a mask one bit below is a."""
    rng = random.Random(seed)
    a, b = rng.sample(range(k), 2)
    labels = [rng.choice((a, b)) for _ in range(1 << n)]
    table = [b] * (1 << n)
    for mask in range(1 << n):
        if labels[mask] == a or any(mask >> i & 1 and table[mask ^ 1 << i] == a
                                    for i in range(n)):
            table[mask] = a
    return (a, b), tuple(table)


def encode_ranking(order):
    """Lehmer rank of the ranking listed as ``order`` among all k! rankings
    (lexicographic order)."""
    k = len(order)
    index = 0
    for j in range(k):
        smaller_later = sum(1 for later in order[j + 1:] if later < order[j])
        index += smaller_later * factorial(k - 1 - j)
    return index


def encode_profile(profile):
    """Mixed-radix pack of the voters' Lehmer ranks, voter 0 most significant."""
    index = 0
    for order in profile:
        index = index * factorial(len(order)) + encode_ranking(order)
    return index


def window_permutations(order, start, width):
    """Every order obtained by permuting positions ``start .. start+width-1`` of
    ``order``, in ``permutations`` order, ``order`` itself first."""
    head, window, tail = order[:start], order[start:start + width], order[start + width:]
    return [head + perm + tail for perm in permutations(window)]


def all_adjacent_transpositions(k):
    """The k(k-1)/2 adjacent transpositions as pairs (a, b) with a < b, in order."""
    return [(a, b) for a in range(k) for b in range(a + 1, k)]


def apply_adjacent_transposition(order, t):
    """Swap the pair t = (a, b) if a and b occupy consecutive positions in
    ``order``, else return ``order``."""
    pa, pb = map(order.index, t)
    if abs(pa - pb) != 1:
        return order
    swapped = list(order)
    swapped[pa], swapped[pb] = order[pb], order[pa]
    return tuple(swapped)


def is_manipulation_pair(evaluate, pair):
    """Whether ``pair`` (profile, altered, coordinate) differs in that coordinate
    only, and the altered profile's outcome is strictly better for it under its
    true ranking."""
    sigma, tau, i = pair.profile, pair.altered, pair.coordinate
    if len(sigma) != len(tau) or not 0 <= i < len(sigma):
        return False
    if any(c != i and r != s for c, (r, s) in enumerate(zip(sigma, tau))):
        return False
    if sigma[i] == tau[i]:
        return False
    truth = sigma[i]
    return truth.index(evaluate(tau)) < truth.index(evaluate(sigma))


def monotone_violation_fraction(table):
    """Fraction of the cube's edges (mask, mask | bit) on which a 2^n table
    decreases in the up direction."""
    m = len(table)
    n = m.bit_length() - 1
    if m != 1 << n or n < 1:
        raise ValueError("table length must be 2^n with n >= 1")
    violations = sum(1 for mask in range(m) for i in range(n)
                     if not mask >> i & 1 and table[mask] > table[mask | 1 << i])
    return Fraction(violations, n * (1 << (n - 1)))


def pairwise_preference_correlation(k, a, b, c):
    """E[x^{a,b} x^{a,c}] over a uniform ranking: +1 when a is above both b and
    c or below both, else -1."""
    if len({a, b, c}) != 3:
        raise ValueError("need three distinct alternatives")
    total = sum(1 if (order.index(a) < order.index(b)) == (order.index(a) < order.index(c))
                else -1 for order in permutations(range(k)))
    return Fraction(total, factorial(k))


def exists_anonymous_neutral(n, k):
    """Whether any SCF on (n, k) can be both anonymous and neutral: exactly when
    k is not a sum (repetition allowed) of divisors d >= 2 of n."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    reachable = [True] + [False] * k
    for d in range(2, n + 1):
        if n % d == 0:
            for s in range(d, k + 1):
                reachable[s] = reachable[s] or reachable[s - d]
    return not reachable[k]
