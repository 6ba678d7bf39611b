"""Check every closed form in the library against an independent
numerical method.

Three verifiers, none of which share code with the formulas: a
Crank-Nicolson solve of the pricing PDE, a barrier-monitored Monte Carlo
simulation with Brownian-bridge crossing correction, and adaptive
quadrature of the terminal payoff against the lognormal density.
"""

import math

from credit_pricer import (
    BondSpec,
    GridSpec,
    MarketParams,
    McSpec,
    OptionKind,
    OptionSpec,
    bond_option_price,
    bond_price,
    mc_barrier_price,
    verification,
)

market = MarketParams(r=0.04, q=0.0, sigma=0.5)
bond = BondSpec(T=2.0, a=0.0, b=100.0, R=0.7)
put = OptionSpec(T1=1.0, E=0.9, kind=OptionKind.PUT)
V0 = 199.0

# PDE: the bond up to maturity, and the put up to its own expiry from
# (E - B)^+ with B the PDE bond at the expiry, in barrier-normalized
# coordinates out to a far field the solver sizes from each horizon;
# Rannacher's implicit start damps the payoff's kink
surfaces = verification.pde_surfaces(bond, market, put, GridSpec(n_space=801, n_time=800))
for name, closed in (("bond", bond_price(V0, 0.0, bond, market)),
                     ("put", bond_option_price(V0, 0.0, bond, put, market))):
    numeric = surfaces[name].value(V0 / bond.b, 0.0)
    print(f"PDE     {name:<4} at V={V0:.0f}: closed {closed:.8f}  grid {numeric:.8f}  "
          f"rel {abs(numeric - closed) / closed:.1e}")

# Monte Carlo: simulate to maturity, pay the recovery on a barrier hit; a
# claim is (payoff, rebate_at_hit, T), and the simulator prices a list of
# them, here one, against one barrier (a, b, anchor)
mc = McSpec(n_paths=200_000, n_steps=200, seed=7)
recovery = lambda t: bond.R * math.exp(-market.r * (bond.T - t))
((est, se),) = mc_barrier_price([(lambda v: 1.0, recovery, bond.T)],
                                (bond.a, bond.b, bond.T), market, mc, V0)
closed = bond_price(V0, 0.0, bond, market)
print(f"MC      bond at V={V0:.0f}: closed {closed:.8f}  "
      f"sim {est:.8f} +- {se:.8f}  ({abs(est - closed) / se:.2f} se)")

# Quadrature: the analytic power-binary prices against direct integration
sweep = verification.quadrature_sweep(seed=11)
print(f"QUAD    power binaries, 200 random draws: worst rel {sweep.measured:.1e}")
