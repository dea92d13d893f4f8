"""Machine-speed probe: a fixed pure-Python job that does not use endotorus.

The benchmark host is a shared 2-vCPU virtual machine whose speed for
interpreter-bound work drifts by 20-25% over minutes.  The drift moves
process CPU time as much as wall time, so it is not preemption.  The harness
runs this probe between samples and scales every reported time by
NOMINAL_S / (mean probe time), so that runs made at different moments
compare.  The probe uses none of the library, so a change to the library
cannot move it.
"""

from tracing import clock

ROUNDS = 10
NOMINAL_S = 0.05   # the probe's time at the reference speed


def probe(rounds: int = ROUNDS) -> float:
    """Seconds taken by a fixed interpreter-bound job: free reduction of
    pseudo-random words, tuple keys and dict updates, the same kind of work
    the library does."""
    start = clock()
    state = 12345
    seen = {}
    for _ in range(rounds):
        for _ in range(200):
            stack = []
            for _ in range(60):
                state = (state * 1103515245 + 12345) & 0x7FFFFFFF
                letter = (state >> 16) % 7 - 3 or 1
                if stack and stack[-1] == -letter:
                    stack.pop()
                else:
                    stack.append(letter)
            key = tuple(stack)
            seen[key] = seen.get(key, 0) + 1
    return clock() - start
