"""Walkthrough: target-vector validity checks on the type lattice."""

from __future__ import annotations

from reserve_match import (
    Instance,
    StudentRecord,
    check_validity_flow,
    crucial_vector,
    group_label,
    solve,
)

BLOCKS = {
    "a": frozenset(),
    "b": frozenset({"t1"}),
    "c": frozenset({"t2"}),
    "d": frozenset({"t1", "t2"}),
}
BLOCK_SIZE = 4


def build_school() -> Instance:
    """Four blocks of four students; two rank-1 seats per type; eight seats."""
    students = [
        StudentRecord(f"{name}{i}", types)
        for name, types in BLOCKS.items()
        for i in range(1, BLOCK_SIZE + 1)
    ]
    return Instance(
        students=students,
        capacity=2 * BLOCK_SIZE,
        priority=[s.id for s in students],
        types=["t1", "t2"],
        quotas={("t1", 1): BLOCK_SIZE // 2, ("t2", 1): BLOCK_SIZE // 2},
    )


def describe(instance: Instance, targets: dict) -> str:
    """'invalid', or the canonical group counts of a witness."""
    counts = check_validity_flow(instance, targets)
    if counts is None:
        return "invalid"
    shape = ", ".join(f"{group_label(key)}={counts[key]}" for key in sorted(counts))
    return f"valid, witness {shape}"


def main() -> None:
    instance = build_school()
    print("Sixteen students in four blocks of four (no type, t1, t2, both),")
    print("eight seats, two rank-1 seats reserved per type.")
    print()

    result = solve(instance)
    print("The balanced choice:")
    print(" ", ", ".join(sorted(result.selected)))
    print(f"alpha = {result.alpha}, signature = {list(result.signature)}")
    print()

    print("Validity asks: can a rank-maximal selection give the doubly-typed")
    print("block at least k students? The type lattice answers from the types")
    print("alone: for every set T of types, the targets of the groups whose")
    print("types lie in T must fit the seats T's types can hold in every")
    print("rank-maximal matching. The witness starts from the targets and")
    print("raises each group in turn as far as those bounds allow: it is the")
    print("group counts of a rank-maximal matching.")
    both = ("t1", "t2")
    for k in range(BLOCK_SIZE + 1):
        print(f"  k = {k}: {describe(instance, {both: k})}")
    print()

    print("Every single-group demand is satisfiable here, but joint demands")
    print("can collide with the reserves. Asking for four untyped and four")
    print("pure-t1 students would fill all eight seats while leaving the t2")
    print("reserve empty, dropping the signature below rank-maximal:")
    joint = {(): BLOCK_SIZE, ("t1",): BLOCK_SIZE}
    assert check_validity_flow(instance, joint) is None
    print(f"  targets none=4, t1=4: {describe(instance, joint)}")
    print()

    alpha, targets = crucial_vector(instance)
    print("The crucial vector sets each target to ceil(alpha * |group|) for")
    print(f"the largest alpha that keeps it valid; here alpha = {alpha}:")
    print(f"  {describe(instance, targets)}")


if __name__ == "__main__":
    main()
