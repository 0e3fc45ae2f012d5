"""Freight rail electrification planning.

Expands a physical rail network into diesel/electric twin arcs joined by yard
switching, prices traction from train physics, solves the congestion
equilibrium, and searches corridor electrification designs under a capital
budget.  The package root holds the names of the README's library example;
everything else is imported from its module.
"""

from .costmodel import RateTable, TrainConsist, build_profiles, yard_switch_costs
from .equilibrium import ODMatrix, solve_equilibrium
from .network import apply_design, expand
