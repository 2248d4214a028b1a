"""loqsim: a desk-scale simulator of linear-optical quantum computing.

Exact Fock-space evolution through linear interferometers via matrix
permanents, heralded/post-selected entangling gates, gate teleportation
with resource accounting, and cluster-state computation with Pauli-frame
feedforward.  The API lives in the submodules (`loqsim.fock`,
`loqsim.interferometer`, `loqsim.detection`, ...), which are imported by
name; the README lists what each holds.
"""

__version__ = "0.1.0"
