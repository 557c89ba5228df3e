"""R9 bad: set iteration order decides scheduling outcomes."""


def pick(node_ids, load):
    candidates = {n for n in node_ids if load[n] < 1.0}
    for node in candidates:
        return node
    return None


def busiest(node_ids, load):
    candidates = set(node_ids)
    return min(candidates, key=lambda n: load[n])
