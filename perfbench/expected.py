"""Frozen outputs: the README's command-line transcripts and the vector
tables of the two one-crossing tangles (acceptance criteria c01 and c02).

Keys are the verb followed by the file stems (or the basis size).  The
corpus workload compares these ops byte for byte against this text, and
checks at set-up that the reference evaluator agrees with it.
"""

TRANSCRIPTS = {
    "basis 1": "[2|2|+]\n[2|2|-]\ncount: 2\n",
    "decat t_left": """\
[2,4|2,4|++] : -q^3
[2,4|2,4|+-] : -q^2
[2,4|2,4|-+] : -q^2
[2,4|2,4|--] : -q
[2,4|4,2|+] : -q^(5/2)
[2,4|4,2|-] : -q^(3/2)
[4,2|2,4|+] : q^(3/2)
[4,2|2,4|-] : q^(1/2)
[4,2|4,2|++] : q^2
[4,2|4,2|+-] : q
[4,2|4,2|-+] : q
[4,2|4,2|--] : 1
""",
    "decat t_right": """\
[2,4|2,4|++] : -q^3
[2,4|2,4|+-] : -q^2
[2,4|2,4|-+] : -q^2
[2,4|2,4|--] : -q
[2,4|4,2|+] : q^(3/2)
[2,4|4,2|-] : q^(1/2)
[4,2|2,4|+] : -q^(5/2)
[4,2|2,4|-] : -q^(3/2)
[4,2|4,2|++] : q^2
[4,2|4,2|+-] : q
[4,2|4,2|-+] : q
[4,2|4,2|--] : 1
""",
    "pair t_left t_right": "q^6 + q^4 + q^2 + 1\n",
    "jones trefoil": "-q^9 + q^5 + q^3 + q\n",
    "mutate-check kt_inside": "B-symmetry: PASS\nC-symmetry: PASS\nM*^2-invariance: PASS\n",
}
