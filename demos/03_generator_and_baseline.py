"""Walkthrough: a generated school and what balance adds to rank-maximality."""

from __future__ import annotations

from reserve_match import generate_instance, group_label, sequential_baseline, solve


def main() -> None:
    instance = generate_instance(200, num_types=3, num_ranks=2, seed=2)
    print("Generated school: 200 students, 3 overlapping types, quotas")
    print(
        " ",
        ", ".join(
            f"{t} rank {j}: {count}" for (t, j), count in sorted(instance.quotas.items())
        ),
        f"| capacity {instance.capacity}",
    )
    print()

    naive = sequential_baseline(instance)
    balanced = solve(instance)

    print("The baseline is the solver's walk from zero targets: among the")
    print("rank-maximal selections it admits students in priority order,")
    print("each one whenever a maximal-diversity matching still fits. It is")
    print("non-wasteful and free of justified envy, but it lifts no group.")
    print("The balanced solver first seats each group's target, then walks.")
    print()
    header = f"{'group':>10} {'size':>5} {'baseline':>9} {'balanced':>9}"
    print(header)
    for group in instance.groups():
        print(
            f"{group_label(group.key):>10} {group.size:>5}"
            f" {naive.per_group_counts[group.key]:>9}"
            f" {balanced.per_group_counts[group.key]:>9}"
        )
    print()
    print(f"Baseline signature: {list(naive.signature)}")
    print(f"Balanced signature: {list(balanced.signature)}")
    print()
    print(f"Baseline worst-off group ratio: {naive.min_ratio}")
    print(f"Balanced worst-off group ratio: {balanced.alpha}")
    print()
    print("Both reach the same signature, so both fill reserved seats as")
    print("well as any selection can, yet the baseline leaves its worst")
    print("group far behind. The balanced solver chooses, among the")
    print("selections with the best signature, one lifting that group as")
    print("high as any selection can.")


if __name__ == "__main__":
    main()
