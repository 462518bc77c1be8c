//! Routing tables and policy routing.
//!
//! This module reimplements the slice of `iproute2` semantics the paper's
//! integration depends on:
//!
//! * multiple routing tables ([`RoutingTable`]) with longest-prefix-match
//!   lookup and metric tie-breaking;
//! * an ordered list of policy rules ([`PolicyRule`]) selecting a table by
//!   firewall mark, source or destination prefix — exactly the mechanism the
//!   authors use to steer only the UMTS slice's packets into the dedicated
//!   table whose single default route points at `ppp0`.
//!
//! Rule processing follows Linux: rules are scanned in ascending priority;
//! a rule whose selector matches causes a lookup in its table; if that
//! lookup fails the scan *continues* with the next rule; if no rule ever
//! yields a route the destination is unreachable.

use crate::iface::IfaceId;
use crate::packet::Mark;
use crate::wire::{Ipv4Address, Ipv4Cidr};

/// Identifier of a routing table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TableId(pub u32);

impl TableId {
    /// The main table, consulted by the default rule (Linux table 254).
    pub const MAIN: TableId = TableId(254);
}

/// One routing table entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// Destination prefix.
    pub dest: Ipv4Cidr,
    /// Next-hop gateway, or `None` for an on-link route.
    pub via: Option<Ipv4Address>,
    /// Egress interface.
    pub dev: IfaceId,
    /// Metric; lower wins among equal-length prefixes.
    pub metric: u32,
    /// Preferred source address for locally originated traffic.
    pub prefsrc: Option<Ipv4Address>,
}

impl Route {
    /// An on-link route to `dest` out of `dev`.
    pub fn onlink(dest: Ipv4Cidr, dev: IfaceId) -> Route {
        Route { dest, via: None, dev, metric: 0, prefsrc: None }
    }

    /// A default route via `gateway` out of `dev`.
    pub fn default_via(gateway: Ipv4Address, dev: IfaceId) -> Route {
        Route { dest: Ipv4Cidr::ANY, via: Some(gateway), dev, metric: 0, prefsrc: None }
    }

    /// A default route out of a point-to-point device (no gateway address
    /// needed; the peer is implicit) — the shape of the UMTS table's route.
    pub fn default_dev(dev: IfaceId) -> Route {
        Route { dest: Ipv4Cidr::ANY, via: None, dev, metric: 0, prefsrc: None }
    }
}

/// A routing table: a set of routes with longest-prefix-match lookup.
#[derive(Debug, Clone, Default)]
pub struct RoutingTable {
    routes: Vec<Route>,
}

impl RoutingTable {
    /// Creates an empty table.
    pub fn new() -> RoutingTable {
        RoutingTable::default()
    }

    /// Adds a route. Duplicate `(dest, metric)` entries are replaced, as
    /// `ip route replace` would.
    pub fn add(&mut self, route: Route) {
        if let Some(existing) =
            self.routes.iter_mut().find(|r| r.dest == route.dest && r.metric == route.metric)
        {
            *existing = route;
        } else {
            self.routes.push(route);
        }
    }

    /// Removes all routes matching `pred`; returns how many were removed.
    pub fn remove_where(&mut self, pred: impl Fn(&Route) -> bool) -> usize {
        let before = self.routes.len();
        self.routes.retain(|r| !pred(r));
        before - self.routes.len()
    }

    /// Removes every route through `dev` (used when an interface goes
    /// down, as the kernel does).
    pub fn purge_dev(&mut self, dev: IfaceId) -> usize {
        self.remove_where(|r| r.dev == dev)
    }

    /// Longest-prefix-match lookup; ties broken by lowest metric, then by
    /// insertion order.
    pub fn lookup(&self, dst: Ipv4Address) -> Option<&Route> {
        self.lookup_index(dst).map(|i| &self.routes[i])
    }

    /// [`RoutingTable::lookup`], returning the winning route's index in
    /// [`RoutingTable::routes`].
    pub fn lookup_index(&self, dst: Ipv4Address) -> Option<usize> {
        self.routes
            .iter()
            .enumerate()
            .filter(|(_, r)| r.dest.contains(dst))
            .max_by(|(_, a), (_, b)| {
                a.dest
                    .prefix_len()
                    .cmp(&b.dest.prefix_len())
                    // lower metric should win: invert for max_by
                    .then_with(|| b.metric.cmp(&a.metric))
            })
            .map(|(i, _)| i)
    }

    /// All routes, in insertion order.
    pub fn routes(&self) -> &[Route] {
        &self.routes
    }

    /// True if the table has no routes.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }
}

/// Selector of a policy rule: all present fields must match.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RuleSelector {
    /// Match packets carrying exactly this (non-zero) firewall mark.
    pub fwmark: Option<Mark>,
    /// Match packets whose source address is inside this prefix.
    pub src: Option<Ipv4Cidr>,
    /// Match packets whose destination address is inside this prefix.
    pub dst: Option<Ipv4Cidr>,
}

impl RuleSelector {
    /// A selector matching every packet.
    pub fn any() -> RuleSelector {
        RuleSelector::default()
    }

    /// A selector matching a firewall mark.
    pub fn fwmark(mark: Mark) -> RuleSelector {
        RuleSelector { fwmark: Some(mark), ..RuleSelector::default() }
    }

    /// True if `key` satisfies the selector.
    pub fn matches(&self, key: &FlowKey) -> bool {
        if let Some(m) = self.fwmark {
            if key.mark != m {
                return false;
            }
        }
        if let Some(src) = self.src {
            if !src.contains(key.src) {
                return false;
            }
        }
        if let Some(dst) = self.dst {
            if !dst.contains(key.dst) {
                return false;
            }
        }
        true
    }
}

/// The routing key extracted from a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowKey {
    /// Source address.
    pub src: Ipv4Address,
    /// Destination address.
    pub dst: Ipv4Address,
    /// Firewall mark.
    pub mark: Mark,
}

/// A policy routing rule: `priority` orders the scan, `selector` gates the
/// rule and `table` is consulted when it matches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyRule {
    /// Scan priority; lower fires first (Linux semantics).
    pub priority: u32,
    /// Match condition.
    pub selector: RuleSelector,
    /// Table consulted on match.
    pub table: TableId,
}

/// The result of resolving a flow against the RIB.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteDecision {
    /// Egress interface.
    pub dev: IfaceId,
    /// Next-hop gateway, if any.
    pub via: Option<Ipv4Address>,
    /// Preferred source address, if the route specifies one.
    pub prefsrc: Option<Ipv4Address>,
    /// The matching rule's index in [`Rib::rules`].
    pub rule: usize,
    /// The route's index in its table's [`RoutingTable::routes`].
    pub route: usize,
}

/// The node's complete routing state: tables plus policy rules.
#[derive(Debug, Clone)]
pub struct Rib {
    tables: std::collections::BTreeMap<TableId, RoutingTable>,
    rules: Vec<PolicyRule>,
}

impl Default for Rib {
    fn default() -> Self {
        Self::new()
    }
}

impl Rib {
    /// Creates a RIB with an empty main table and the default rule
    /// `priority 32766: from all lookup main`, as Linux boots with.
    pub fn new() -> Rib {
        let mut tables = std::collections::BTreeMap::new();
        tables.insert(TableId::MAIN, RoutingTable::new());
        Rib {
            tables,
            rules: vec![PolicyRule {
                priority: 32_766,
                selector: RuleSelector::any(),
                table: TableId::MAIN,
            }],
        }
    }

    /// Mutable access to a table, creating it if absent.
    pub fn table_mut(&mut self, id: TableId) -> &mut RoutingTable {
        self.tables.entry(id).or_default()
    }

    /// Shared access to a table.
    pub fn table(&self, id: TableId) -> Option<&RoutingTable> {
        self.tables.get(&id)
    }

    /// Deletes a non-main table entirely. The main table can only be
    /// emptied, never removed.
    pub fn drop_table(&mut self, id: TableId) -> bool {
        if id == TableId::MAIN {
            self.tables.insert(TableId::MAIN, RoutingTable::new());
            return false;
        }
        self.tables.remove(&id).is_some()
    }

    /// Adds a policy rule, keeping the list sorted by priority (stable for
    /// equal priorities: later additions scan after earlier ones).
    pub fn add_rule(&mut self, rule: PolicyRule) {
        let pos =
            self.rules.iter().position(|r| r.priority > rule.priority).unwrap_or(self.rules.len());
        self.rules.insert(pos, rule);
    }

    /// Removes all rules matching `pred`; returns how many were removed.
    pub fn remove_rules_where(&mut self, pred: impl Fn(&PolicyRule) -> bool) -> usize {
        let before = self.rules.len();
        self.rules.retain(|r| !pred(r));
        before - self.rules.len()
    }

    /// The rule list in scan order.
    pub fn rules(&self) -> &[PolicyRule] {
        &self.rules
    }

    /// All tables with their ids, in ascending table-id order.
    ///
    /// Read-only: static analyzers (the `umtslab-verify` crate) walk the
    /// whole RIB through this without needing mutable or crate-private
    /// access.
    pub fn tables(&self) -> impl Iterator<Item = (TableId, &RoutingTable)> {
        self.tables.iter().map(|(id, t)| (*id, t))
    }

    /// Resolves a flow: scans rules in priority order, looks up matching
    /// tables, and returns the first route found.
    pub fn resolve(&self, key: &FlowKey) -> Option<RouteDecision> {
        for (i, rule) in self.rules.iter().enumerate() {
            if !rule.selector.matches(key) {
                continue;
            }
            let Some(table) = self.tables.get(&rule.table) else {
                continue;
            };
            if let Some(index) = table.lookup_index(key.dst) {
                let route = &table.routes[index];
                return Some(RouteDecision {
                    dev: route.dev,
                    via: route.via,
                    prefsrc: route.prefsrc,
                    rule: i,
                    route: index,
                });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(s: &str) -> Ipv4Address {
        s.parse().unwrap()
    }
    fn c(s: &str) -> Ipv4Cidr {
        s.parse().unwrap()
    }
    fn key(src: &str, dst: &str, mark: u32) -> FlowKey {
        FlowKey { src: a(src), dst: a(dst), mark: Mark(mark) }
    }

    const ETH0: IfaceId = IfaceId(0);
    const PPP0: IfaceId = IfaceId(1);

    #[test]
    fn longest_prefix_wins() {
        let mut t = RoutingTable::new();
        t.add(Route::default_via(a("192.168.0.1"), ETH0));
        t.add(Route::onlink(c("10.0.0.0/8"), ETH0));
        t.add(Route::onlink(c("10.1.0.0/16"), PPP0));
        assert_eq!(t.lookup(a("10.1.2.3")).unwrap().dev, PPP0);
        assert_eq!(t.lookup(a("10.9.2.3")).unwrap().dev, ETH0);
        assert_eq!(t.lookup(a("8.8.8.8")).unwrap().via, Some(a("192.168.0.1")));
    }

    #[test]
    fn metric_breaks_equal_prefix_ties() {
        let mut t = RoutingTable::new();
        let mut high = Route::onlink(c("10.0.0.0/8"), ETH0);
        high.metric = 100;
        let mut low = Route::onlink(c("10.0.0.0/8"), PPP0);
        low.metric = 50; // added second, lower metric: must win
        t.add(high);
        t.add(low);
        assert_eq!(t.lookup(a("10.0.0.1")).unwrap().dev, PPP0);
    }

    #[test]
    fn add_replaces_same_dest_and_metric() {
        let mut t = RoutingTable::new();
        t.add(Route::onlink(c("10.0.0.0/8"), ETH0));
        t.add(Route::onlink(c("10.0.0.0/8"), PPP0));
        assert_eq!(t.routes().len(), 1);
        assert_eq!(t.lookup(a("10.0.0.1")).unwrap().dev, PPP0);
    }

    #[test]
    fn purge_dev_removes_interface_routes() {
        let mut t = RoutingTable::new();
        t.add(Route::onlink(c("10.0.0.0/8"), ETH0));
        t.add(Route::default_dev(PPP0));
        assert_eq!(t.purge_dev(PPP0), 1);
        assert!(t.lookup(a("8.8.8.8")).is_none());
    }

    #[test]
    fn empty_table_lookup_fails() {
        let t = RoutingTable::new();
        assert!(t.lookup(a("1.2.3.4")).is_none());
        assert!(t.is_empty());
    }

    #[test]
    fn rib_default_rule_consults_main() {
        let mut rib = Rib::new();
        rib.table_mut(TableId::MAIN).add(Route::default_via(a("192.168.0.1"), ETH0));
        let d = rib.resolve(&key("192.168.0.2", "8.8.8.8", 0)).unwrap();
        assert_eq!(d.dev, ETH0);
        assert_eq!(rib.rules()[d.rule].table, TableId::MAIN);
        assert_eq!(rib.rules()[d.rule].priority, 32_766);
    }

    #[test]
    fn fwmark_rule_steers_into_umts_table() {
        // The paper's exact setup: a dedicated table with only a default
        // route out of ppp0, selected by the UMTS slice's mark.
        let umts_table = TableId(100);
        let mark = Mark(7);
        let mut rib = Rib::new();
        rib.table_mut(TableId::MAIN).add(Route::default_via(a("192.168.0.1"), ETH0));
        rib.table_mut(umts_table).add(Route::default_dev(PPP0));
        rib.add_rule(PolicyRule {
            priority: 1000,
            selector: RuleSelector::fwmark(mark),
            table: umts_table,
        });

        // Marked packet goes out ppp0.
        let d = rib.resolve(&key("192.168.0.2", "8.8.8.8", 7)).unwrap();
        assert_eq!(d.dev, PPP0);
        assert_eq!(rib.rules()[d.rule].table, umts_table);
        // Unmarked packet falls through to main.
        let d = rib.resolve(&key("192.168.0.2", "8.8.8.8", 0)).unwrap();
        assert_eq!(d.dev, ETH0);
        // Differently-marked packet also falls through.
        let d = rib.resolve(&key("192.168.0.2", "8.8.8.8", 9)).unwrap();
        assert_eq!(d.dev, ETH0);
    }

    #[test]
    fn source_address_rule_matches_ppp_address() {
        // Second rule shape from the paper: packets sourced from the
        // PPP-assigned address use the UMTS table.
        let umts_table = TableId(100);
        let ppp_addr = a("10.64.3.7");
        let mut rib = Rib::new();
        rib.table_mut(TableId::MAIN).add(Route::default_via(a("192.168.0.1"), ETH0));
        rib.table_mut(umts_table).add(Route::default_dev(PPP0));
        rib.add_rule(PolicyRule {
            priority: 1001,
            selector: RuleSelector { src: Some(Ipv4Cidr::host(ppp_addr)), ..RuleSelector::any() },
            table: umts_table,
        });
        let d = rib.resolve(&key("10.64.3.7", "8.8.8.8", 0)).unwrap();
        assert_eq!(d.dev, PPP0);
        let d = rib.resolve(&key("192.168.0.2", "8.8.8.8", 0)).unwrap();
        assert_eq!(d.dev, ETH0);
    }

    #[test]
    fn failed_table_lookup_continues_scan() {
        // A matching rule whose table has no route must not terminate the
        // scan (Linux continues to the next rule).
        let empty = TableId(50);
        let mut rib = Rib::new();
        rib.table_mut(empty); // exists but empty
        rib.table_mut(TableId::MAIN).add(Route::default_via(a("192.168.0.1"), ETH0));
        rib.add_rule(PolicyRule { priority: 10, selector: RuleSelector::any(), table: empty });
        let d = rib.resolve(&key("192.168.0.2", "8.8.8.8", 0)).unwrap();
        assert_eq!(d.dev, ETH0);
    }

    #[test]
    fn missing_table_is_skipped() {
        let mut rib = Rib::new();
        rib.table_mut(TableId::MAIN).add(Route::default_via(a("192.168.0.1"), ETH0));
        rib.add_rule(PolicyRule {
            priority: 10,
            selector: RuleSelector::any(),
            table: TableId(77), // never created
        });
        assert!(rib.resolve(&key("1.1.1.1", "8.8.8.8", 0)).is_some());
    }

    #[test]
    fn unreachable_when_no_rule_yields_route() {
        let rib = Rib::new(); // main table empty
        assert!(rib.resolve(&key("1.1.1.1", "8.8.8.8", 0)).is_none());
    }

    #[test]
    fn rules_scan_in_priority_order() {
        let t1 = TableId(1);
        let t2 = TableId(2);
        let mut rib = Rib::new();
        rib.table_mut(t1).add(Route::default_dev(ETH0));
        rib.table_mut(t2).add(Route::default_dev(PPP0));
        // Added out of order; priority must dominate.
        rib.add_rule(PolicyRule { priority: 200, selector: RuleSelector::any(), table: t2 });
        rib.add_rule(PolicyRule { priority: 100, selector: RuleSelector::any(), table: t1 });
        let d = rib.resolve(&key("1.1.1.1", "8.8.8.8", 0)).unwrap();
        assert_eq!(d.dev, ETH0);
        assert_eq!(rib.rules()[d.rule].priority, 100);
    }

    #[test]
    fn remove_rules_where_cleans_up() {
        let mut rib = Rib::new();
        rib.add_rule(PolicyRule {
            priority: 1000,
            selector: RuleSelector::fwmark(Mark(7)),
            table: TableId(100),
        });
        assert_eq!(rib.rules().len(), 2);
        assert_eq!(rib.remove_rules_where(|r| r.table == TableId(100)), 1);
        assert_eq!(rib.rules().len(), 1);
        assert_eq!(rib.rules()[0].priority, 32_766);
    }

    #[test]
    fn drop_table_resets_main_but_removes_others() {
        let mut rib = Rib::new();
        rib.table_mut(TableId::MAIN).add(Route::default_dev(ETH0));
        rib.table_mut(TableId(100)).add(Route::default_dev(PPP0));
        assert!(rib.drop_table(TableId(100)));
        assert!(rib.table(TableId(100)).is_none());
        assert!(!rib.drop_table(TableId::MAIN));
        assert!(rib.table(TableId::MAIN).unwrap().is_empty());
    }

    #[test]
    fn selector_dst_match() {
        let sel = RuleSelector { dst: Some(c("10.0.0.0/8")), ..RuleSelector::any() };
        assert!(sel.matches(&key("1.1.1.1", "10.2.3.4", 0)));
        assert!(!sel.matches(&key("1.1.1.1", "11.2.3.4", 0)));
    }

    #[test]
    fn selector_conjunction() {
        let sel = RuleSelector {
            fwmark: Some(Mark(5)),
            src: Some(c("192.168.0.0/24")),
            dst: Some(c("10.0.0.0/8")),
        };
        assert!(sel.matches(&key("192.168.0.9", "10.1.1.1", 5)));
        assert!(!sel.matches(&key("192.168.0.9", "10.1.1.1", 6)));
        assert!(!sel.matches(&key("192.168.1.9", "10.1.1.1", 5)));
        assert!(!sel.matches(&key("192.168.0.9", "11.1.1.1", 5)));
    }
}
