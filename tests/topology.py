"""Random topologies shared by the tests that run generated graphs."""


def random_connected(names, rng):
    """Links of a random connected graph over `names`, drawn from `rng`.

    A random spanning tree joins every node to one placed before it in a
    shuffled order; then up to len(names) - 1 extra links are drawn, with
    repeats of a pair dropped. Links are (a, b) pairs of names.
    """
    order = list(names)
    rng.shuffle(order)
    links = [(order[i], order[rng.randrange(i)])
             for i in range(1, len(order))]
    have = {frozenset(l) for l in links}
    for _ in range(rng.randrange(len(names))):
        a, b = rng.sample(names, 2)
        if frozenset((a, b)) not in have:
            have.add(frozenset((a, b)))
            links.append((a, b))
    return links
