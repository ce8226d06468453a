"""Robust decentralized nonlinear MPC for multi-agent navigation.

Subpackages: ball set algebra and tube radii (`setalg`), the unicycle model
and integrators (`dynamics`), the world model, stage margins and their tube
tightening (`constraints`), the per-agent finite-horizon solver (`ocp`), the
sequential closed-loop engine and its CSV log (`coordination`), analytic
certificates and log verification (`certify`), and the command-line
interface (`cli`).
"""

__version__ = "0.1.0"
