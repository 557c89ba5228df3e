"""R9 good: explicit order before a set's order is observable."""


def pick(node_ids, load):
    candidates = {n for n in node_ids if load[n] < 1.0}
    for node in sorted(candidates):
        return node
    return None
