"""Walkthrough: two schools running deferred acceptance, and a broken axiom."""

from __future__ import annotations

from reserve_match import (
    Instance,
    MultiInstance,
    School,
    StudentRecord,
    run_gda,
    substitutability_probe,
)


def build_market() -> MultiInstance:
    """Five students, two schools, one reserved seat at school Y."""
    students = [
        StudentRecord("a", frozenset({"t1"})),
        StudentRecord("b", frozenset()),
        StudentRecord("c", frozenset({"t1"})),
        StudentRecord("d", frozenset()),
        StudentRecord("e", frozenset()),
    ]
    schools = [
        School("X", 1, ("a", "b", "c", "d", "e"), {}),
        School("Y", 2, ("d", "e", "c", "b", "a"), {("t1", 1): 1}),
    ]
    preferences = {
        "a": ["X", "Y"],
        "b": ["X"],
        "c": ["X", "Y"],
        "d": ["Y"],
        "e": ["Y", "X"],
    }
    return MultiInstance(students, ["t1"], schools, preferences)


def build_column_school() -> Instance:
    """Six t1 students and three t2 students over four seats, quotas 4 and 4."""
    students = [
        StudentRecord(f"s1{i}", frozenset({"t1"})) for i in range(1, 7)
    ] + [StudentRecord(f"s2{i}", frozenset({"t2"})) for i in range(1, 4)]
    return Instance(
        students=students,
        capacity=4,
        priority=[s.id for s in students],
        types=["t1", "t2"],
        quotas={("t1", 1): 4, ("t2", 1): 4},
    )


def main() -> None:
    multi = build_market()
    print("School X has one open seat; school Y has two seats, one of them")
    print("reserved at rank 1 for type t1. Students a and c hold t1. Each")
    print("round, unmatched students propose to their next school, and each")
    print("school keeps the balanced choice from everyone it has seen.")
    print()
    result = run_gda(multi)
    # the trace keeps each round's proposals and rejections; a school's held
    # set is its last one plus its proposers, minus its rejections
    held: dict[str, set[str]] = {}
    for rt in result.rounds:
        print(f"Round {rt.number}:")
        for cid in sorted(rt.proposals):
            held[cid] = held.get(cid, set()) | set(rt.proposals[cid])
            held[cid] -= set(rt.rejected[cid])
            if rt.proposals[cid]:
                print(f"  {cid} receives {', '.join(rt.proposals[cid])},"
                      f" holds {', '.join(sorted(held[cid])) or 'nobody'}"
                      + (f", rejects {', '.join(rt.rejected[cid])}"
                         if rt.rejected[cid] else ""))
    print()
    print("Note round 2: when c arrives, Y prefers filling its reserved seat")
    print("over keeping e, even though e was already being held.")
    print()
    for sid in sorted(result.assignment):
        school = result.assignment[sid]
        print(f"  {sid} -> {school if school else 'unmatched'}")
    print()
    print("Deferred acceptance terminates, but with overlapping reserves the")
    print("school choice function need not be substitutable, the property")
    print("that usually guarantees stability. The probe below exhibits this.")
    print()

    instance = build_column_school()
    base = [s.id for s in instance.students if s.id not in ("s16", "s13")]
    violation = substitutability_probe(instance, base, "s16", "s13")
    assert violation is not None
    print("One school, four seats, rank-1 quotas of four per type, six t1")
    print("students (s11..s16) and three t2 students (s21..s23).")
    print()
    print("Without s16 in the pool:", ", ".join(sorted(violation.without_s1)))
    print("With s16 in the pool:   ", ", ".join(sorted(violation.with_s1)))
    print()
    print("Adding the extra t1 student s16 rescues s13: more t1 students at")
    print("rank 1 raise what the t1 group can claim, so a previously")
    print("rejected t1 student is now selected. A rejection was not final,")
    print("which is exactly a substitutability violation.")


if __name__ == "__main__":
    main()
