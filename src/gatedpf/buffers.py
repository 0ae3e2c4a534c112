"""Work buffers of a filter run.

A filter step computes many temporaries the size of the ensemble block:
the CTM's boundary flows and supplies, the speed map's blocks, the
measurement rows' moments, residuals and log densities, the weight
update's ``[log w; rows]`` stack and the posterior mean's products.  At a
large particle count each is larger than the C allocator's threshold for
mapping fresh pages, so allocating them anew every step costs page faults
rather than arithmetic.  A filter run therefore owns one
:class:`StepBuffers`, sized for its largest step, and every step writes its
temporaries into it in place, with ufunc ``out=`` and ``np.take(...,
out=)``.

A result of a function that takes a ``work`` argument (``ctm.advance``,
``ctm.speed_map``, ``sensing.measurement_rows``,
``particles.weight_update`` and ``particles.posterior_mean``) is either a
fresh array or a view of the buffers, valid until the next call that is
given the same buffers; ensembles never hold a view of them.  A step makes
one sensing call, ``measurement_rows``, which builds its rows' moments in
two buffers and overwrites them with what both gates read: the residuals
over the means and log(std) over the stds, beside the log densities.  The
buffers belong to one caller: two runs processed concurrently each have
their own.
"""
from __future__ import annotations

import numpy as np


class StepBuffers:
    """Work buffers for steps on (L, P) blocks of ``n_particles`` columns.

    ``n_states`` is L, the state rows of a block; ``max_rows`` the most
    measurement rows of a step, and ``max_links`` the most positions of a
    link plan (a step's speed reports) one speed map evaluates.  Every
    buffer is overwritten by the call that uses it; none carries a value
    from one call to the next.
    """

    def __init__(self, n_particles: int, n_states: int = 0, max_rows: int = 0, max_links: int = 0):
        p, n, m, k = n_particles, n_states, max_rows, max_links
        # ctm.advance: the boundary flows (L + 1, P) and the supplies (L, P).
        self.flows = np.empty((n + 1, p))
        self.supply = np.empty((n, p))
        # ctm.speed_map on up to K links: their densities (which become
        # the returned speeds), their discharges, their downstream supplies
        # (reused for rho * dt) and which of them are occupied.
        self.link_density = np.empty((k, p))
        self.discharge = np.empty((k, p))
        self.link_supply = np.empty((k, p))
        self.occupied = np.empty((k, p), dtype=bool)
        # sensing.measurement_rows on up to M rows: the null model's mean
        # (which becomes the residuals z) and std (which becomes log(std)),
        # and the log densities.
        self.mean = np.empty((m, p))
        self.std = np.empty((m, p))
        self.log_density = np.empty((m, p))
        # particles.weight_update's [log w; rows] and posterior_mean's
        # products, one particle per row.
        self.stack = np.empty((m + 1, p))
        self.products = np.empty((p, n))
