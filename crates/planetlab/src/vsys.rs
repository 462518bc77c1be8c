//! vsys: the privilege broker between slices and the root context.
//!
//! PlanetLab slices cannot run privileged commands; `vsys` bridges the gap
//! with a pair of FIFO pipes per (slice, script): the slice writes a
//! request into the front-end pipe, a root-context back-end process reads
//! it, acts with full privileges, and writes the result back. Access is
//! controlled by an ACL of slices allowed to invoke each script.
//!
//! [`VsysChannel`] reproduces that structure generically: typed requests
//! and responses, per-slice queues, and an ACL. The UMTS back-end consumes
//! it in [`crate::node`].

use std::collections::{BTreeMap, VecDeque};

use crate::slice::SliceId;

/// Error submitting a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VsysError {
    /// The slice is not in the script's ACL.
    NotAuthorized,
}

/// A typed vsys script endpoint: front-end pipes on the slice side,
/// back-end queue in the root context.
#[derive(Debug)]
pub struct VsysChannel<Req, Resp> {
    /// Script name (e.g. `umts`), for diagnostics.
    pub script: String,
    acl: Vec<SliceId>,
    /// Requests awaiting the back-end, in arrival order.
    inbound: VecDeque<(SliceId, Req)>,
    /// Responses awaiting each slice's front-end. Ordered map so any
    /// cross-slice drain walks slices in id order, not hash order.
    outbound: BTreeMap<SliceId, VecDeque<Resp>>,
}

impl<Req, Resp> VsysChannel<Req, Resp> {
    /// Creates a channel with an empty ACL (nobody may call it yet).
    pub fn new(script: impl Into<String>) -> Self {
        VsysChannel {
            script: script.into(),
            acl: Vec::new(),
            inbound: VecDeque::new(),
            outbound: BTreeMap::new(),
        }
    }

    /// Grants a slice access to the script.
    pub fn grant(&mut self, slice: SliceId) {
        if !self.acl.contains(&slice) {
            self.acl.push(slice);
        }
    }

    /// Revokes a slice's access.
    pub fn revoke(&mut self, slice: SliceId) {
        self.acl.retain(|&s| s != slice);
    }

    /// Whether a slice may call the script.
    pub fn is_authorized(&self, slice: SliceId) -> bool {
        self.acl.contains(&slice)
    }

    /// Front-end: a slice submits a request.
    pub fn submit(&mut self, slice: SliceId, request: Req) -> Result<(), VsysError> {
        if !self.is_authorized(slice) {
            return Err(VsysError::NotAuthorized);
        }
        self.inbound.push_back((slice, request));
        Ok(())
    }

    /// Back-end: takes the next pending request.
    pub fn backend_next(&mut self) -> Option<(SliceId, Req)> {
        self.inbound.pop_front()
    }

    /// Back-end: queues a response for a slice's front-end.
    pub fn backend_reply(&mut self, slice: SliceId, response: Resp) {
        self.outbound.entry(slice).or_default().push_back(response);
    }

    /// Front-end: a slice collects its pending responses.
    pub fn collect(&mut self, slice: SliceId) -> Vec<Resp> {
        self.outbound.get_mut(&slice).map(|q| q.drain(..).collect()).unwrap_or_default()
    }

    /// Pending back-end work.
    pub fn pending(&self) -> usize {
        self.inbound.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn channel() -> VsysChannel<&'static str, String> {
        VsysChannel::new("umts")
    }

    #[test]
    fn unauthorized_slice_is_rejected() {
        let mut ch = channel();
        let s = SliceId(1000);
        assert_eq!(ch.submit(s, "start"), Err(VsysError::NotAuthorized));
        assert_eq!(ch.pending(), 0);
    }

    #[test]
    fn granted_slice_round_trips() {
        let mut ch = channel();
        let s = SliceId(1000);
        ch.grant(s);
        ch.submit(s, "start").unwrap();
        let (who, what) = ch.backend_next().unwrap();
        assert_eq!((who, what), (s, "start"));
        ch.backend_reply(s, "ok".to_string());
        assert_eq!(ch.collect(s), vec!["ok".to_string()]);
        // Responses are drained.
        assert!(ch.collect(s).is_empty());
    }

    #[test]
    fn revoke_closes_access() {
        let mut ch = channel();
        let s = SliceId(1000);
        ch.grant(s);
        ch.revoke(s);
        assert!(!ch.is_authorized(s));
        assert_eq!(ch.submit(s, "start"), Err(VsysError::NotAuthorized));
    }

    #[test]
    fn requests_are_fifo_across_slices() {
        let mut ch = channel();
        let a = SliceId(1);
        let b = SliceId(2);
        ch.grant(a);
        ch.grant(b);
        ch.submit(a, "one").unwrap();
        ch.submit(b, "two").unwrap();
        ch.submit(a, "three").unwrap();
        assert_eq!(ch.backend_next().unwrap(), (a, "one"));
        assert_eq!(ch.backend_next().unwrap(), (b, "two"));
        assert_eq!(ch.backend_next().unwrap(), (a, "three"));
        assert!(ch.backend_next().is_none());
    }

    #[test]
    fn responses_are_per_slice() {
        let mut ch = channel();
        let a = SliceId(1);
        let b = SliceId(2);
        ch.grant(a);
        ch.grant(b);
        ch.backend_reply(a, "for-a".to_string());
        ch.backend_reply(b, "for-b".to_string());
        assert_eq!(ch.collect(a), vec!["for-a".to_string()]);
        assert_eq!(ch.collect(b), vec!["for-b".to_string()]);
    }

    #[test]
    fn double_grant_is_idempotent() {
        let mut ch = channel();
        let s = SliceId(1);
        ch.grant(s);
        ch.grant(s);
        ch.revoke(s);
        assert!(!ch.is_authorized(s));
    }
}
