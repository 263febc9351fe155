"""Reference code the tests compare the package against.

Example nets and logs (``fixtures``), brute-force oracles (``oracles``),
classical Petri nets (``petri``), exhaustive order enumerations
(``orders``) and sequential firing of runs and alignments (``runs``).
None of it runs in the ``nualign`` commands.
"""
