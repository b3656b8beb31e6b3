//! Topology partitioning and the deterministic solver worker pool.
//!
//! The fabric's sharing graph decomposes along the physical topology: a
//! pod-local flow can only ever contend with flows inside the same pod
//! (fat-tree) or rack (multi-root tree / leaf–spine), because every path
//! out of the pod crosses the *spine* — the core/gateway layer. The
//! [`PartitionMap`] derives that decomposition structurally, with no
//! second source of truth:
//!
//! 1. the **spine** is every [`DeviceKind::Core`] and
//!    [`DeviceKind::Gateway`] device, plus every
//!    [`DeviceKind::Aggregation`] switch directly attached to a core or
//!    gateway *when removing it disconnects the edge layer* — concretely,
//!    aggregation switches adjacent to a gateway (the multi-root tree,
//!    where aggregation roots *are* the shared layer). Fat-tree
//!    aggregation switches attach only to cores and therefore stay inside
//!    their pod partition;
//! 2. the **local partitions** are the connected components of the device
//!    graph with the spine removed, numbered ascending by their smallest
//!    member [`DeviceId`] — racks on the multi-root tree and leaf–spine,
//!    pods on the fat-tree;
//! 3. each **resource** (one direction of one link) is owned by the
//!    partition containing both endpoints, or by the *shared spine*
//!    bucket when either endpoint is a spine device.
//!
//! The map is consulted by the flow simulator to shard its completion
//! heap and to attribute each dirty region to a partition
//! (`network_partition_solves_total` telemetry); disjoint regions are
//! solved concurrently on [`map_ordered`], the deterministic ordered
//! worker pool. See DESIGN.md §4c for the bit-for-bit argument.

use crate::topology::{DeviceId, DeviceKind, Topology};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Sentinel partition index for the shared spine (core/gateway layer).
/// Stored as `u32::MAX` internally; exposed through
/// [`PartitionMap::shared_id`] as one past the last local partition.
const SPINE: u32 = u32::MAX;

/// Which partition (pod / rack) owns each device and link direction.
///
/// Derived once from the [`Topology`] by [`PartitionMap::derive`]; the
/// derivation is a pure function of the topology, so two simulators over
/// the same fabric always agree on partition boundaries.
///
/// # Example
///
/// ```
/// use picloud_network::flowsim::partition::PartitionMap;
/// use picloud_network::topology::Topology;
///
/// // k = 4 fat-tree: 4 pods of 4 hosts; cores form the shared spine.
/// let topo = Topology::fat_tree(4);
/// let map = PartitionMap::derive(&topo);
/// assert_eq!(map.partition_count(), 4);
/// let parts: Vec<_> = topo.hosts().map(|h| map.device_partition(h.id)).collect();
/// assert!(parts.iter().all(|p| p.is_some()));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionMap {
    /// Number of local (non-spine) partitions.
    n_local: u32,
    /// Partition per device; `SPINE` for spine devices.
    device_part: Vec<u32>,
    /// Partition per resource (2 per link); `SPINE` for spine-crossing
    /// directions.
    resource_part: Vec<u32>,
    /// Resource count per local partition, plus the spine bucket last.
    resources_per: Vec<u32>,
}

impl PartitionMap {
    /// Derives the partition map from `topo` (see the module docs for the
    /// spine rule). Deterministic: partitions are numbered ascending by
    /// their smallest member device id.
    pub fn derive(topo: &Topology) -> PartitionMap {
        let n_dev = topo.devices().len();
        let is_spine: Vec<bool> = topo
            .devices()
            .iter()
            .map(|d| match d.kind {
                DeviceKind::Core | DeviceKind::Gateway => true,
                DeviceKind::Aggregation => topo
                    .neighbours(d.id)
                    .iter()
                    .any(|(n, _)| matches!(topo.device(*n).kind, DeviceKind::Gateway)),
                DeviceKind::Host { .. } | DeviceKind::TopOfRack { .. } => false,
            })
            .collect();
        // Label connected components of the graph minus the spine, in
        // ascending order of each component's first-seen device id.
        let mut device_part = vec![SPINE; n_dev];
        let mut n_local = 0u32;
        let mut stack: Vec<DeviceId> = Vec::new();
        for d in topo.devices() {
            let di = d.id.0 as usize;
            if is_spine[di] || device_part[di] != SPINE {
                continue;
            }
            device_part[di] = n_local;
            stack.push(d.id);
            while let Some(v) = stack.pop() {
                for &(n, _) in topo.neighbours(v) {
                    let ni = n.0 as usize;
                    if !is_spine[ni] && device_part[ni] == SPINE {
                        device_part[ni] = n_local;
                        stack.push(n);
                    }
                }
            }
            n_local += 1;
        }
        let mut resources_per = vec![0u32; n_local as usize + 1];
        let mut resource_part = Vec::with_capacity(topo.links().len() * 2);
        for l in topo.links() {
            let (pa, pb) = (device_part[l.a.0 as usize], device_part[l.b.0 as usize]);
            let owner = if pa == pb { pa } else { SPINE };
            let bucket = if owner == SPINE {
                n_local as usize
            } else {
                owner as usize
            };
            // Both directions of a link share an owner.
            resource_part.push(owner);
            resource_part.push(owner);
            resources_per[bucket] += 2;
        }
        PartitionMap {
            n_local,
            device_part,
            resource_part,
            resources_per,
        }
    }

    /// Number of local partitions (pods / racks), excluding the spine.
    pub fn partition_count(&self) -> usize {
        self.n_local as usize
    }

    /// Number of completion-heap shards: every local partition plus the
    /// shared-spine bucket.
    pub fn shard_count(&self) -> usize {
        self.n_local as usize + 1
    }

    /// The index of the shared-spine bucket — one past the last local
    /// partition, so `0..=shared_id()` enumerates every bucket.
    pub fn shared_id(&self) -> u32 {
        self.n_local
    }

    /// The local partition owning `device`, or `None` for spine devices.
    pub fn device_partition(&self, device: DeviceId) -> Option<u32> {
        match self.device_part[device.0 as usize] {
            SPINE => None,
            p => Some(p),
        }
    }

    /// The bucket owning resource `res` (a link-direction index as used
    /// by the flow simulator): a local partition id, or
    /// [`PartitionMap::shared_id`] for spine-crossing resources.
    pub fn resource_bucket(&self, res: usize) -> u32 {
        match self.resource_part[res] {
            SPINE => self.n_local,
            p => p,
        }
    }

    /// The bucket owning a set of resource indices — a dirty region, or
    /// one flow's path: the common local partition if every resource
    /// agrees, otherwise the shared-spine bucket (cross-pod paths, or
    /// anything touching a spine link). An empty set maps to the spine.
    pub fn region_bucket(&self, resources: impl IntoIterator<Item = usize>) -> u32 {
        let mut owner = None;
        for r in resources {
            let b = self.resource_bucket(r);
            match owner {
                None => owner = Some(b),
                Some(o) if o == b => {}
                Some(_) => return self.n_local,
            }
        }
        owner.unwrap_or(self.n_local)
    }

    /// Resources owned by `bucket` (a local partition id or
    /// [`PartitionMap::shared_id`]).
    pub fn resources_in(&self, bucket: u32) -> usize {
        self.resources_per[bucket as usize] as usize
    }

    /// Human-readable bucket label: `"p3"` for local partitions,
    /// `"shared"` for the spine bucket — the `partition` telemetry label.
    pub fn bucket_label(&self, bucket: u32) -> String {
        if bucket >= self.n_local {
            "shared".to_string()
        } else {
            format!("p{bucket}")
        }
    }
}

/// Applies `f` to every item on a quarantined pool of `workers` OS
/// threads and returns the outputs **in item order**, regardless of
/// scheduling.
///
/// This is the only sanctioned concurrency primitive in the simulation
/// crates (lint rule D4): threads are scoped (no detached lifetimes),
/// carry no RNG and never read the wall clock, and every output lands in
/// the slot of its input index — so the merge order, and therefore every
/// downstream bit, is independent of thread interleaving. Work is
/// claimed from a shared atomic cursor, which makes the *assignment* of
/// items to threads nondeterministic while leaving the result vector
/// deterministic; callers must not let `f` observe the claiming order.
///
/// With `workers <= 1` or fewer than two items the pool is bypassed and
/// `f` runs inline on the caller's thread — the serial reference path.
///
/// A panic in `f` reaches the caller once every worker has been joined.
/// The pool keeps no state between calls, so a panicked call cannot
/// strand a later one.
///
/// # Example
///
/// ```
/// use picloud_network::flowsim::partition::map_ordered;
///
/// let squares = map_ordered(4, &[1u64, 2, 3, 4, 5], |_, x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16, 25]);
/// ```
pub fn map_ordered<I, O, F>(workers: usize, items: &[I], f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(usize, &I) -> O + Sync,
{
    if workers <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, it)| f(i, it)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut out: Vec<Option<O>> = Vec::with_capacity(items.len());
    out.resize_with(items.len(), || None);
    let f = &f;
    let cursor = &cursor;
    // lint: allow(D4) reason=this IS the quarantined pool — scoped, clock-free, RNG-free, order-restoring (see module docs)
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.min(items.len()))
            .map(|_| {
                // lint: allow(D4) reason=worker of the quarantined pool; results are re-ordered by item index below
                scope.spawn(move || {
                    let mut got: Vec<(usize, O)> = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        got.push((i, f(i, &items[i])));
                    }
                    got
                })
            })
            .collect();
        for h in handles {
            // lint: allow(P1) reason=a panicking worker already poisoned the solve; propagating the panic is the only sound recovery
            for (i, o) in h.join().expect("solver worker panicked") {
                out[i] = Some(o);
            }
        }
    });
    out.into_iter()
        .map(|o| {
            // lint: allow(P1) reason=every index below items.len() is claimed exactly once by the cursor loop
            o.expect("worker pool left a slot unfilled")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multi_root_tree_partitions_by_rack() {
        let topo = Topology::multi_root_tree(4, 14, 2);
        let map = PartitionMap::derive(&topo);
        // Aggregation roots hang off the gateway: they are spine, so each
        // rack (ToR + 14 hosts) is its own partition.
        assert_eq!(map.partition_count(), 4);
        for h in topo.hosts() {
            let rack = h.kind.rack().unwrap();
            let tor = topo
                .devices()
                .iter()
                .find(|d| matches!(d.kind, DeviceKind::TopOfRack { rack: r } if r == rack))
                .unwrap();
            assert_eq!(map.device_partition(h.id), map.device_partition(tor.id));
        }
        for d in topo.devices() {
            match d.kind {
                DeviceKind::Aggregation | DeviceKind::Core | DeviceKind::Gateway => {
                    assert_eq!(map.device_partition(d.id), None, "{} must be spine", d.name);
                }
                _ => assert!(map.device_partition(d.id).is_some()),
            }
        }
    }

    #[test]
    fn fat_tree_partitions_by_pod() {
        let topo = Topology::fat_tree(4);
        let map = PartitionMap::derive(&topo);
        assert_eq!(map.partition_count(), 4, "k=4 fat-tree has 4 pods");
        // Fat-tree aggregation switches touch only cores and edge
        // switches: they stay inside their pod.
        let agg_parts: Vec<_> = topo
            .devices()
            .iter()
            .filter(|d| matches!(d.kind, DeviceKind::Aggregation))
            .map(|d| map.device_partition(d.id))
            .collect();
        assert!(agg_parts.iter().all(|p| p.is_some()));
        for d in topo.devices() {
            if matches!(d.kind, DeviceKind::Core) {
                assert_eq!(map.device_partition(d.id), None);
            }
        }
        // Every resource bucket is either a pod or the shared spine, and
        // the buckets tile the resource set exactly.
        let total: usize = (0..=map.shared_id()).map(|b| map.resources_in(b)).sum();
        assert_eq!(total, topo.links().len() * 2);
        assert!(
            map.resources_in(map.shared_id()) > 0,
            "core links are shared"
        );
    }

    #[test]
    fn leaf_spine_partitions_by_leaf() {
        let topo = Topology::leaf_spine(4, 6, 2);
        let map = PartitionMap::derive(&topo);
        assert_eq!(map.partition_count(), 4);
    }

    #[test]
    fn region_bucket_collapses_mixed_regions_to_shared() {
        let topo = Topology::fat_tree(4);
        let map = PartitionMap::derive(&topo);
        let p0: Vec<usize> = (0..topo.links().len() * 2)
            .filter(|&r| map.resource_bucket(r) == 0)
            .collect();
        let p1: Vec<usize> = (0..topo.links().len() * 2)
            .filter(|&r| map.resource_bucket(r) == 1)
            .collect();
        assert_eq!(map.region_bucket(p0.iter().copied()), 0);
        assert_eq!(map.region_bucket(p1.iter().copied()), 1);
        let mixed = p0.iter().chain(p1.iter()).copied();
        assert_eq!(map.region_bucket(mixed), map.shared_id());
        assert_eq!(map.region_bucket(std::iter::empty()), map.shared_id());
        assert_eq!(map.bucket_label(0), "p0");
        assert_eq!(map.bucket_label(map.shared_id()), "shared");
    }

    #[test]
    fn isolated_hosts_form_their_own_partition() {
        let mut topo = Topology::new("pair");
        let a = topo.add_device(DeviceKind::Host { rack: 0 }, "a");
        let b = topo.add_device(DeviceKind::Host { rack: 0 }, "b");
        topo.add_link(
            a,
            b,
            picloud_simcore::units::Bandwidth::mbps(100),
            picloud_simcore::SimDuration::from_nanos(100),
        );
        let map = PartitionMap::derive(&topo);
        assert_eq!(map.partition_count(), 1);
        assert_eq!(map.device_partition(a), Some(0));
        assert_eq!(map.resource_bucket(0), 0);
        assert_eq!(map.resources_in(map.shared_id()), 0);
    }

    #[test]
    fn map_ordered_is_order_preserving_at_any_worker_count() {
        let items: Vec<u64> = (0..97).collect();
        let serial = map_ordered(1, &items, |i, x| x * 3 + i as u64);
        for workers in [2usize, 3, 8, 16] {
            let parallel = map_ordered(workers, &items, |i, x| x * 3 + i as u64);
            assert_eq!(serial, parallel, "workers={workers}");
        }
    }

    #[test]
    fn map_ordered_handles_empty_and_single() {
        let none: Vec<u32> = map_ordered(8, &[], |_, x: &u32| *x);
        assert!(none.is_empty());
        assert_eq!(map_ordered(8, &[7u32], |_, x| x + 1), vec![8]);
    }

    #[test]
    fn map_ordered_propagates_a_task_panic_and_stays_usable() {
        let items: Vec<u64> = (0..64).collect();
        let want: Vec<u64> = items.iter().map(|x| x * 2).collect();
        for workers in [2usize, 8] {
            let caught = std::panic::catch_unwind(|| {
                map_ordered(workers, &items, |_, &x| {
                    assert_ne!(x, 17, "injected task panic");
                    x * 2
                })
            });
            assert!(
                caught.is_err(),
                "workers={workers}: panic must reach the caller"
            );
            assert_eq!(map_ordered(workers, &items, |_, x| x * 2), want);
        }
    }
}
