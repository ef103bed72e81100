//! Dimension-ordered (XY) routing on mesh machines.
//!
//! Raw's static network is compiler-routed: each transfer follows a
//! deterministic path of switch-to-switch links. We reproduce the
//! standard dimension-ordered route (travel along X first, then Y) and
//! track per-link, per-cycle occupancy so [`crate::evaluate`] can charge
//! contention stalls when two routes need the same wire in the same
//! cycle.

use convergent_ir::{ClusterId, IdMap};
use convergent_machine::{Machine, Topology};

use crate::CycleSet;

/// A directed mesh link between two adjacent tile coordinates, plus the
/// self-link `(a, a)` used to model each tile's injection port.
pub(crate) type Link = ((u16, u16), (u16, u16));

/// The XY route from `from` to `to` as a list of directed links
/// (including the injection self-link first). Empty when `from == to`.
///
/// For non-mesh topologies the route is a single logical link, since a
/// clustered VLIW's transfer bus has no intermediate hops.
#[must_use]
pub fn route_hops(
    machine: &Machine,
    from: ClusterId,
    to: ClusterId,
) -> Vec<((u16, u16), (u16, u16))> {
    if from == to {
        return Vec::new();
    }
    let topo = machine.topology();
    match topo {
        Topology::Mesh { .. } => {
            let (mut x, mut y) = topo.coords(from);
            let (tx, ty) = topo.coords(to);
            let mut links = vec![((x, y), (x, y))]; // injection port
            while x != tx {
                let nx = if tx > x { x + 1 } else { x - 1 };
                links.push(((x, y), (nx, y)));
                x = nx;
            }
            while y != ty {
                let ny = if ty > y { y + 1 } else { y - 1 };
                links.push(((x, y), (x, ny)));
                y = ny;
            }
            links
        }
        Topology::PointToPoint => {
            vec![(topo.coords(from), topo.coords(to))]
        }
    }
}

/// Tracks link occupancy and computes contention-adjusted injections.
#[derive(Clone, Debug, Default)]
pub(crate) struct Router {
    /// The busy cycles of each link that has carried a route.
    busy: IdMap<Link, CycleSet>,
}

impl Router {
    pub(crate) fn new() -> Self {
        Router::default()
    }

    /// Injects a route at the earliest cycle `>= ready` at which every
    /// link along the path is free (link `k` is used at `injection + k`).
    /// Marks the links busy and returns the injection cycle.
    pub(crate) fn inject(&mut self, path: &[Link], ready: u32) -> u32 {
        // A link busy from `s + k` up to its next free cycle `f` rules
        // out every injection before `f - k`: jump there and recheck
        // the whole path, until no link objects.
        let mut s = ready;
        'search: loop {
            for (k, link) in (0u32..).zip(path) {
                let free = self.busy.get(link).map_or(s + k, |set| {
                    set.first_free(s + k, u32::MAX, None)
                        .expect("an unbounded scan lands past the last busy cycle")
                });
                if free > s + k {
                    s = free - k;
                    continue 'search;
                }
            }
            break;
        }
        for (k, link) in (0u32..).zip(path) {
            self.busy.entry(*link).or_default().insert(s + k);
        }
        s
    }
}

/// Summary of network behaviour produced by [`crate::evaluate`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RouterReport {
    /// Total cycles transfers waited for busy links.
    pub stall_cycles: u32,
    /// Number of transfers routed.
    pub routes: usize,
    /// Total link-cycles consumed (communication volume × distance).
    pub link_cycles: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xy_route_on_mesh() {
        let m = Machine::raw(16); // 4x4
        let path = route_hops(&m, ClusterId::new(0), ClusterId::new(15));
        // Injection port + 3 X-hops + 3 Y-hops.
        assert_eq!(path.len(), 7);
        assert_eq!(path[0], ((0, 0), (0, 0)));
        assert_eq!(path[1], ((0, 0), (1, 0)));
        assert_eq!(path.last().unwrap().1, (3, 3));
        // Same tile: empty.
        assert!(route_hops(&m, ClusterId::new(3), ClusterId::new(3)).is_empty());
    }

    #[test]
    fn xy_route_goes_x_first() {
        let m = Machine::raw(16);
        // 0 -> 5 is (0,0) -> (1,1): X then Y.
        let path = route_hops(&m, ClusterId::new(0), ClusterId::new(5));
        assert_eq!(
            path,
            vec![((0, 0), (0, 0)), ((0, 0), (1, 0)), ((1, 0), (1, 1)),]
        );
    }

    #[test]
    fn router_charges_contention() {
        let m = Machine::raw(16);
        let path = route_hops(&m, ClusterId::new(0), ClusterId::new(1));
        let mut r = Router::new();
        let first = r.inject(&path, 5);
        assert_eq!(first, 5);
        // Same path, same cycle: must stall one cycle.
        let second = r.inject(&path, 5);
        assert_eq!(second, 6);
        // Disjoint path at the same time: no stall.
        let other = route_hops(&m, ClusterId::new(10), ClusterId::new(11));
        assert_eq!(r.inject(&other, 5), 5);
    }

    #[test]
    fn pipelined_routes_share_links_across_cycles() {
        let m = Machine::raw(16);
        // Route A occupies link (0,0)->(1,0) at its injection cycle.
        let a = route_hops(&m, ClusterId::new(0), ClusterId::new(1));
        let mut r = Router::new();
        assert_eq!(r.inject(&a, 0), 0);
        // A route injected the next cycle reuses the link pipeline-style.
        assert_eq!(r.inject(&a, 1), 1);
    }

    #[test]
    fn point_to_point_route_is_single_link() {
        let m = Machine::chorus_vliw(4);
        let path = route_hops(&m, ClusterId::new(0), ClusterId::new(2));
        assert_eq!(path.len(), 1);
    }
}
