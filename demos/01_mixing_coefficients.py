# Demo: exact mixing coefficients of finite-state Markov chains.
#
# A stationary chain's dependence at lag i is the pi-averaged total-variation
# distance between the i-step conditional law and the stationary law. For a
# two-state chain with flip probabilities (p, q) this decays exactly like
# |1 - p - q|^i, which the closed form below reproduces to machine precision.

import numpy as np

import mixfree as mf
from mixfree.processgen import beta_at_lag


def betas(model, horizon):
    return np.array([beta_at_lag(model, i) for i in range(1, horizon + 1)])


print("two-state chains: exact beta(i) vs the closed form 2 pi0 pi1 |1-p-q|^i")
print(f"{'p':>5} {'q':>5} {'beta(1)':>12} {'beta(5)':>12} {'beta(20)':>12} {'closed-form gap':>16}")
for p, q in [(0.25, 0.25), (0.05, 0.05), (0.6, 0.3), (0.9, 0.9)]:
    model = mf.two_state_chain(p, q)
    pi = model.stationary
    b = betas(model, 20)
    closed = 2 * pi[0] * pi[1] * np.abs(1 - p - q) ** np.arange(1, 21)
    gap = np.max(np.abs(b - closed))
    print(f"{p:>5} {q:>5} {b[0]:>12.6f} {b[4]:>12.6f} {b[19]:>12.6f} {gap:>16.2e}")

# An iid chain (every row equals pi) has no dependence at all.
iid = mf.iid_chain([0.3, 0.7])
print("\niid chain max beta over 20 lags:", betas(iid, 20).max())

# Product chains: independent replicas mix like their worst coordinate, and
# the block length needed for near-independent blocks grows logarithmically.
base = mf.two_state_chain(0.05, 0.05)           # |1 - p - q| = 0.9
chain = mf.product_chain(base, 3)
for n in (10_000, 100_000):
    k = mf.k_mix_from_chain(chain, n, delta=0.05)
    print(f"3-fold product of 0.9-dependence chains: k_mix = {k} at n = {n}")
