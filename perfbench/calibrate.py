"""Fixed reference work that tells the benchmark how fast the host is now.

The benchmark runs this script in a fresh interpreter next to every
measured command.  It does exact integer polynomial arithmetic, the kind
of work rjpascal spends its time on, but uses no code of rjpascal, so no
change to the program can change its cost: only the host can.  It prints
a checksum so that the benchmark can tell that it ran to the end.
"""


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def main() -> None:
    base = [3, -1, 4, 1, -5, 9, 2, 6]
    acc = [1]
    for _ in range(140):
        acc = poly_mul(acc, base)
    print(len(acc), sum(acc) % 1_000_000_007, max(acc).bit_length())


if __name__ == "__main__":
    main()
