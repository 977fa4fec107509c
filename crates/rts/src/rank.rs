//! Scheduler-side state of one virtual rank.

use crate::command::{MatchSpec, RankShared, Slot};
use crate::message::RtsMessage;
use crate::{PeId, RankId};
use parking_lot::Mutex;
use pvr_des::SimDuration;
use pvr_isomalloc::RankMemory;
use pvr_privatize::RankInstance;
use pvr_ult::Ult;
use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};
use std::sync::Arc;

/// Scheduling status of a rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankStatus {
    /// In some PE's ready queue (or currently running).
    Ready,
    /// Blocked in `Recv` with an empty mailbox.
    Waiting,
    /// Parked at an `AtSync` barrier.
    AtSync,
    /// Body returned.
    Done,
}

/// What kind of operation a request-table entry tracks.
#[derive(Debug, Clone)]
pub enum ReqKind {
    /// Nonblocking send (completed by the reliable-delivery ack, or at
    /// post when delivery is unconditional).
    Send,
    /// Nonblocking receive with its delivery-time matching predicate.
    Recv(MatchSpec),
    /// Receive prematched by the caller against its own unexpected
    /// queue; born complete.
    Local,
}

/// Completion state of a request-table entry.
#[derive(Debug, Clone)]
pub enum ReqState {
    /// Posted, not yet complete.
    Pending,
    /// Complete; receives carry the matched message until reaped.
    Done(Option<RtsMessage>),
}

/// One entry in a rank's request table.
#[derive(Debug, Clone)]
pub struct ReqEntry {
    pub kind: ReqKind,
    pub state: ReqState,
    /// Named by the wait the rank is suspended in, and still pending
    /// when it suspended: completing it counts toward waking the rank.
    pub waited: bool,
}

impl ReqEntry {
    pub fn is_send(&self) -> bool {
        matches!(self.kind, ReqKind::Send)
    }

    pub fn is_done(&self) -> bool {
        matches!(self.state, ReqState::Done(_))
    }
}

/// What a rank suspended in a wait-family call is waiting for.
#[derive(Debug, Clone)]
pub struct WaitSet {
    /// Request ids the call named.
    pub ids: Vec<u64>,
    /// `true`: wake when any one completes (Waitany/Waitsome); `false`:
    /// wake only when all complete (Wait/Waitall).
    pub any: bool,
    /// Completions delivered to this wait count as continuations.
    pub cont: bool,
    /// Named requests (entries flagged `waited`) not yet complete. Only
    /// completions decrement it, so it is monotone until the wait reaps:
    /// an all-wait is satisfied when it reaches zero, an any-wait at the
    /// first decrement.
    pub pending: u32,
}

/// A reaped request: its id and, for a runtime-matched receive, the
/// matched message.
pub type ReqOutcome = (u64, Option<RtsMessage>);

/// The pending posted receives of one rank, indexed for delivery-time
/// matching.
///
/// A receive's `MatchSpec` falls in one *class* — whether it filters on
/// the source, and its tag mask — and within a class a message can only
/// match the key `(from, tag & mask)` (`from` read as 0 when the class
/// takes any source). So a delivery probes each class once and takes the
/// smallest id across the hits: exactly the first pending match in post
/// order, which is what keeps non-overtaking and wildcard post-order
/// resolution. AMPI uses at most four classes (source or any, tag or any).
///
/// Derived state: never captured, rebuilt from the table on restore.
#[derive(Debug, Default)]
struct PostedIndex {
    /// Every class a receive has been posted in, with the
    /// `(src, tag_value, id)` of its pending receives. A class stays when
    /// it empties, so a rank reposting in it allocates nothing.
    classes: Vec<PostedClass>,
}

#[derive(Debug)]
struct PostedClass {
    filters_src: bool,
    tag_mask: u64,
    keys: BTreeSet<(RankId, u64, u64)>,
}

impl PostedIndex {
    /// The ordered set of `spec`'s class, created if new.
    fn class(&mut self, spec: &MatchSpec) -> &mut BTreeSet<(RankId, u64, u64)> {
        let filters_src = spec.src.is_some();
        let found = self
            .classes
            .iter()
            .position(|c| c.filters_src == filters_src && c.tag_mask == spec.tag_mask);
        let i = found.unwrap_or_else(|| {
            self.classes.push(PostedClass {
                filters_src,
                tag_mask: spec.tag_mask,
                keys: BTreeSet::new(),
            });
            self.classes.len() - 1
        });
        &mut self.classes[i].keys
    }

    fn key(spec: &MatchSpec, id: u64) -> (RankId, u64, u64) {
        (spec.src.unwrap_or(0), spec.tag_value, id)
    }

    fn insert(&mut self, spec: &MatchSpec, id: u64) {
        self.class(spec).insert(Self::key(spec, id));
    }

    fn remove(&mut self, spec: &MatchSpec, id: u64) {
        let was_indexed = self.class(spec).remove(&Self::key(spec, id));
        debug_assert!(was_indexed, "pending receive {id} missing from the index");
    }

    /// Id of the earliest-posted pending receive matching `msg`.
    fn first_match(&self, msg: &RtsMessage) -> Option<u64> {
        self.classes
            .iter()
            .filter_map(|c| {
                let src = if c.filters_src { msg.from } else { 0 };
                let value = msg.tag & c.tag_mask;
                let &(s, v, id) = c.keys.range((src, value, 0)..).next()?;
                (s == src && v == value).then_some(id)
            })
            .min()
    }

    /// The index of `table`'s pending receives.
    fn build(table: &BTreeMap<u64, ReqEntry>) -> PostedIndex {
        let mut index = PostedIndex::default();
        for (&id, e) in table {
            if let (ReqKind::Recv(spec), ReqState::Pending) = (&e.kind, &e.state) {
                index.insert(spec, id);
            }
        }
        index
    }
}

/// What [`Requests::complete`] did besides marking the request done.
pub(crate) struct Completed {
    /// The request was a send.
    pub send: bool,
    /// The rank's suspended wait, satisfied by this completion: its
    /// `cont` flag and the outcomes reaped for it.
    pub woke: Option<(bool, Vec<ReqOutcome>)>,
}

/// One rank's nonblocking-request engine: the request table, the
/// completion queue, the suspended wait, pending reliable sends, and the
/// posted-receive index. Posting, delivery-time matching, completion and
/// reaping happen here once, for the lane path and the barrier-time path
/// alike.
///
/// Costs: a delivery is `O(classes · log n)`, a completion `O(log n)`, a
/// reap `O(completions + ids)`, and a wait `O(ids · log n)` to start and
/// `O(1)` per completion after that.
#[derive(Debug, Default)]
pub struct Requests {
    /// Next request id (monotonic per rank; survives migration).
    seq: u64,
    /// The request table: open nonblocking requests in post order.
    table: BTreeMap<u64, ReqEntry>,
    /// Completion queue: ids in the order they completed, reaped FIFO by
    /// `ReqWait`/`ReqTest`.
    completions: VecDeque<u64>,
    /// The wait-family call the rank is suspended in, if any. `Some`
    /// exactly while the rank is `Waiting` in such a call; a plain `Recv`
    /// wait leaves it `None`.
    wait: Option<WaitSet>,
    /// Outstanding reliable-delivery sends: `(dst, seq) -> request id`,
    /// resolved to completions when the matching ack arrives.
    pub(crate) pending_sends: BTreeMap<(RankId, u64), u64>,
    /// Pending receives indexed for delivery-time matching (derived).
    posted: PostedIndex,
}

impl Requests {
    /// Open entries (pending or completed but unreaped).
    pub(crate) fn len(&self) -> usize {
        self.table.len()
    }

    /// Is the rank suspended in a wait-family call?
    pub(crate) fn in_wait(&self) -> bool {
        self.wait.is_some()
    }

    /// Open a request of `kind`; returns its id.
    pub(crate) fn post(&mut self, kind: ReqKind) -> u64 {
        let id = self.seq;
        self.seq += 1;
        if let ReqKind::Recv(spec) = &kind {
            self.posted.insert(spec, id);
        }
        self.table.insert(
            id,
            ReqEntry {
                kind,
                state: ReqState::Pending,
                waited: false,
            },
        );
        id
    }

    /// The posted receive a delivered `msg` completes: the earliest
    /// posted pending receive whose spec matches, if any.
    pub(crate) fn match_posted(&self, msg: &RtsMessage) -> Option<u64> {
        self.posted.first_match(msg)
    }

    /// Mark request `id` complete (a receive keeps its matched `msg`
    /// until reaped) and queue the completion. If it satisfies the wait
    /// the rank is suspended in, the wait ends here and its outcomes are
    /// reaped.
    pub(crate) fn complete(&mut self, id: u64, msg: Option<RtsMessage>) -> Completed {
        let e = self.table.get_mut(&id).expect("completing unknown request");
        debug_assert!(!e.is_done(), "request {id} completed twice");
        if let ReqKind::Recv(spec) = &e.kind {
            self.posted.remove(spec, id);
        }
        e.state = ReqState::Done(msg);
        let send = e.is_send();
        let waited = std::mem::take(&mut e.waited);
        self.completions.push_back(id);
        let mut woke = None;
        if waited {
            let ws = self.wait.as_mut().expect("waited request without a wait");
            ws.pending -= 1;
            if ws.any || ws.pending == 0 {
                let ws = self.wait.take().expect("checked above");
                woke = Some((ws.cont, self.end_wait(&ws)));
            }
        }
        Completed { send, woke }
    }

    /// Start a wait-family call over `ids`. Returns the reaped outcomes
    /// if the wait is already satisfied (every named request done, or for
    /// an any-wait at least one); otherwise records the wait and returns
    /// `None` — the rank suspends until [`Requests::complete`] wakes it.
    /// Ids no longer in the table count as done.
    pub(crate) fn wait(&mut self, ids: Vec<u64>, any: bool, cont: bool) -> Option<Vec<ReqOutcome>> {
        let mut flagged = 0;
        let mut any_done = false;
        for id in &ids {
            match self.table.get_mut(id) {
                Some(e) if !e.is_done() => {
                    if !e.waited {
                        e.waited = true;
                        flagged += 1;
                    }
                }
                _ => any_done = true,
            }
        }
        let satisfied = if any { any_done } else { flagged == 0 };
        if ids.is_empty() || satisfied {
            if flagged > 0 {
                self.unflag(&ids);
            }
            return Some(self.reap(&ids));
        }
        self.wait = Some(WaitSet {
            ids,
            any,
            cont,
            pending: flagged,
        });
        None
    }

    /// Named requests still pending in the current wait.
    pub(crate) fn wait_pending(&self) -> u32 {
        self.wait.as_ref().map_or(0, |ws| ws.pending)
    }

    /// Reap a satisfied wait: hand over its completed requests and
    /// unflag the ones still pending (an any-wait leaves some).
    fn end_wait(&mut self, ws: &WaitSet) -> Vec<ReqOutcome> {
        let outcomes = self.reap(&ws.ids);
        if ws.any {
            self.unflag(&ws.ids);
        }
        outcomes
    }

    /// Clear the `waited` flag of the pending requests among `ids`.
    fn unflag(&mut self, ids: &[u64]) {
        for id in ids {
            if let Some(e) = self.table.get_mut(id) {
                e.waited = false;
            }
        }
    }

    /// Reap the completed requests among `ids`, in completion order: each
    /// leaves both the completion queue and the table, and a receive
    /// hands over its matched message. One pass over the completion
    /// queue.
    pub(crate) fn reap(&mut self, ids: &[u64]) -> Vec<ReqOutcome> {
        let mut out = Vec::new();
        if ids.is_empty() || self.completions.is_empty() {
            return out;
        }
        let wanted: HashSet<u64> = ids.iter().copied().collect();
        let table = &mut self.table;
        self.completions.retain(|id| {
            if !wanted.contains(id) {
                return true;
            }
            let e = table.remove(id).expect("completed request in table");
            let ReqState::Done(msg) = e.state else {
                unreachable!("queued completion must be done")
            };
            out.push((*id, msg));
            false
        });
        out
    }

    /// Tear the engine down at finalize; returns how many requests were
    /// still open (leaked).
    pub(crate) fn clear(&mut self) -> u64 {
        let open = self.table.len() as u64;
        self.table.clear();
        self.completions.clear();
        self.pending_sends.clear();
        self.posted = PostedIndex::default();
        open
    }
}

/// A rank's request-engine state captured together with a checkpoint
/// image, so coordinated rollback restores the request table exactly as
/// it stood at the barrier. The posted-receive index is not captured:
/// [`ReqSnapshot::apply`] rebuilds it from the table.
#[derive(Debug, Clone, Default)]
pub(crate) struct ReqSnapshot {
    pub req_seq: u64,
    pub reqs: BTreeMap<u64, ReqEntry>,
    pub completions: VecDeque<u64>,
    pub wait_set: Option<WaitSet>,
    pub pending_sends: BTreeMap<(RankId, u64), u64>,
}

impl ReqSnapshot {
    /// Capture a rank's request state (at a barrier).
    pub(crate) fn capture(r: &Requests) -> ReqSnapshot {
        ReqSnapshot {
            req_seq: r.seq,
            reqs: r.table.clone(),
            completions: r.completions.clone(),
            wait_set: r.wait.clone(),
            pending_sends: r.pending_sends.clone(),
        }
    }

    /// Restore the captured state (coordinated rollback), rebuilding the
    /// posted-receive index from the restored table.
    pub(crate) fn apply(&self, r: &mut Requests) {
        *r = Requests {
            seq: self.req_seq,
            table: self.reqs.clone(),
            completions: self.completions.clone(),
            wait: self.wait_set.clone(),
            pending_sends: self.pending_sends.clone(),
            posted: PostedIndex::build(&self.reqs),
        };
    }
}

/// Everything the runtime owns for one virtual rank.
///
/// Field order matters: `ult` must drop before `memory`, because a
/// suspended ULT's cancellation unwinds frames living on the stack region
/// inside `memory`.
pub struct RankState {
    /// The coroutine (None only transiently during teardown).
    pub ult: Option<Ult>,
    /// The rank's migratable memory: heap, stack, TLS block, and — under
    /// PIEglobals — its code/data segment copies.
    pub memory: RankMemory,
    pub instance: Arc<RankInstance>,
    pub slot: Arc<Mutex<Slot>>,
    pub shared: Arc<RankShared>,
    pub status: RankStatus,
    pub location: PeId,
    pub mailbox: VecDeque<RtsMessage>,
    /// Work accumulated since the last LB step (virtual mode), or wall
    /// time measured around resumes (real mode) — the LB input.
    pub load_since_lb: SimDuration,
    /// Lifetime totals for reports.
    pub total_load: SimDuration,
    pub messages_sent: u64,
    pub messages_received: u64,
    pub migrations: u32,
    /// Nonblocking requests: table, completion queue, suspended wait,
    /// posted-receive index.
    pub req: Requests,
}

impl RankState {
    pub fn id(&self) -> RankId {
        self.instance.rank()
    }

    pub fn is_done(&self) -> bool {
        self.status == RankStatus::Done
    }

    /// Bytes that must move if this rank migrates now.
    pub fn migration_bytes(&self) -> usize {
        self.memory.migration_bytes()
    }
}

impl std::fmt::Debug for RankState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RankState")
            .field("rank", &self.id())
            .field("status", &self.status)
            .field("pe", &self.location)
            .field("mailbox", &self.mailbox.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use proptest::prelude::*;

    /// The delivery-time matching rule the index implements, as the
    /// linear scan it replaced: the first pending receive in post order
    /// whose spec matches.
    fn scan_match(table: &BTreeMap<u64, ReqEntry>, msg: &RtsMessage) -> Option<u64> {
        table
            .iter()
            .find(|(_, e)| match (&e.kind, &e.state) {
                (ReqKind::Recv(spec), ReqState::Pending) => spec.matches(msg),
                _ => false,
            })
            .map(|(id, _)| *id)
    }

    /// Reaping as the quadratic loop it replaced did it, on copies:
    /// completed ids among `ids`, in completion order.
    fn reap_reference(r: &Requests, ids: &[u64]) -> Vec<(u64, Option<u64>)> {
        r.completions
            .iter()
            .filter(|id| ids.contains(id))
            .map(|id| match &r.table[id].state {
                ReqState::Done(msg) => (*id, msg.as_ref().map(|m| m.seq)),
                ReqState::Pending => unreachable!("queued completion must be done"),
            })
            .collect()
    }

    /// Wait satisfaction as the per-completion rescan decided it.
    fn satisfied_reference(r: &Requests, ids: &[u64], any: bool) -> bool {
        let done = |id: &u64| r.table.get(id).is_none_or(|e| e.is_done());
        ids.is_empty()
            || if any {
                ids.iter().any(done)
            } else {
                ids.iter().all(done)
            }
    }

    /// Every indexed receive as `(filters source, mask, key)`, sorted.
    fn index_keys(index: &PostedIndex) -> Vec<(bool, u64, (RankId, u64, u64))> {
        let mut keys: Vec<_> = index
            .classes
            .iter()
            .flat_map(|c| c.keys.iter().map(|&k| (c.filters_src, c.tag_mask, k)))
            .collect();
        keys.sort_unstable();
        keys
    }

    /// Outcomes keyed by the message stamp (`seq`), comparable with
    /// [`reap_reference`].
    fn stamps(outcomes: Vec<ReqOutcome>) -> Vec<(u64, Option<u64>)> {
        outcomes
            .into_iter()
            .map(|(id, m)| (id, m.map(|m| m.seq)))
            .collect()
    }

    /// Tag bits AMPI keeps under an any-tag receive (communicator, kind).
    const ENVELOPE: u64 = 0xFFFF_FFFF_0000_0000;
    const SOURCES: u64 = 3;

    fn tag(hi: u64, lo: u64) -> u64 {
        (hi % 2) << 32 | (lo % 4)
    }

    /// Pick the ids whose bit is set in `bits` from `pool` (plus one id
    /// never posted when bit 63 is set: waits and reaps may name ids
    /// that are already gone).
    fn pick(pool: impl Iterator<Item = u64>, bits: u64, absent: u64) -> Vec<u64> {
        let mut ids: Vec<u64> = pool
            .enumerate()
            .filter(|&(i, _)| bits >> (i % 63) & 1 == 1)
            .map(|(_, id)| id)
            .collect();
        if bits >> 63 == 1 {
            ids.push(absent);
        }
        ids
    }

    #[derive(Default)]
    struct Coverage {
        matched: usize,
        unmatched: usize,
        wildcard_matched: usize,
        woke: usize,
        blocked: usize,
        reaped: usize,
        restored: usize,
    }

    /// Drive one `Requests` through `ops` — `(op, a, b, bits)` tuples —
    /// checking the index, reap and wake against the reference rules
    /// after every step.
    fn drive(ops: &[(u8, u64, u64, u64)]) -> Coverage {
        let mut r = Requests::default();
        let mut snap: Option<ReqSnapshot> = None;
        let mut cov = Coverage::default();
        let mut stamp = 0u64;
        for &(op, a, b, bits) in ops {
            let suspended = r.in_wait();
            match op {
                // posts: exact, any-source, any-tag, both wildcards
                0..=3 if !suspended => {
                    let any_src = bits & 1 == 1;
                    let any_tag = bits & 2 == 2;
                    let t = tag(a, b);
                    let spec = MatchSpec {
                        src: (!any_src).then_some((a % SOURCES) as RankId),
                        tag_mask: if any_tag { ENVELOPE } else { u64::MAX },
                        tag_value: if any_tag { t & ENVELOPE } else { t },
                    };
                    r.post(ReqKind::Recv(spec));
                }
                4 if !suspended => {
                    r.post(if a % 2 == 0 {
                        ReqKind::Send
                    } else {
                        ReqKind::Local
                    });
                }
                // deliveries (external: allowed while suspended)
                5..=7 => {
                    stamp += 1;
                    let mut msg =
                        RtsMessage::new((b % SOURCES) as RankId, 0, tag(a, bits), Bytes::new());
                    msg.seq = stamp;
                    let want = scan_match(&r.table, &msg);
                    assert_eq!(
                        r.match_posted(&msg),
                        want,
                        "index and scan disagree on {msg:?}"
                    );
                    let Some(id) = want else {
                        cov.unmatched += 1;
                        continue;
                    };
                    cov.matched += 1;
                    if let ReqKind::Recv(spec) = &r.table[&id].kind {
                        if spec.src.is_none() || spec.tag_mask != u64::MAX {
                            cov.wildcard_matched += 1;
                        }
                    }
                    complete_checked(&mut r, id, Some(msg), &mut cov);
                }
                // a pending send or local request completes
                8 => {
                    let open: Vec<u64> = r
                        .table
                        .iter()
                        .filter(|(_, e)| !e.is_done() && !matches!(e.kind, ReqKind::Recv(_)))
                        .map(|(&id, _)| id)
                        .collect();
                    if !open.is_empty() {
                        let id = open[(a as usize) % open.len()];
                        complete_checked(&mut r, id, None, &mut cov);
                    }
                }
                9 if !suspended => {
                    let ids = pick(r.table.keys().copied(), bits, r.seq + 7);
                    let want = reap_reference(&r, &ids);
                    cov.reaped += want.len();
                    assert_eq!(stamps(r.reap(&ids)), want, "reap of {ids:?}");
                }
                10 if !suspended => {
                    let ids = pick(r.table.keys().copied(), bits, r.seq + 7);
                    let any = a % 2 == 0;
                    let satisfied = satisfied_reference(&r, &ids, any);
                    let want = reap_reference(&r, &ids);
                    match r.wait(ids.clone(), any, b % 2 == 0) {
                        Some(got) => {
                            assert!(satisfied, "wait {ids:?} (any={any}) answered early");
                            assert_eq!(stamps(got), want);
                        }
                        None => {
                            assert!(!satisfied, "wait {ids:?} (any={any}) suspended needlessly");
                            cov.blocked += 1;
                        }
                    }
                }
                11 => snap = Some(ReqSnapshot::capture(&r)),
                12 => {
                    if let Some(s) = &snap {
                        s.apply(&mut r);
                        cov.restored += 1;
                    }
                }
                _ => {}
            }
            assert_eq!(
                index_keys(&r.posted),
                index_keys(&PostedIndex::build(&r.table)),
                "index drifted from the table"
            );
        }
        cov
    }

    /// Complete `id` and check the wake decision and reaped outcomes
    /// against the rescan rule.
    fn complete_checked(r: &mut Requests, id: u64, msg: Option<RtsMessage>, cov: &mut Coverage) {
        let wait = r.wait.clone();
        let mut reference = Requests {
            table: r.table.clone(),
            completions: r.completions.clone(),
            ..Default::default()
        };
        reference.table.get_mut(&id).unwrap().state = ReqState::Done(msg.clone());
        reference.completions.push_back(id);
        let done = r.complete(id, msg);
        let Some(ws) = wait else {
            assert!(done.woke.is_none(), "woke without a wait");
            return;
        };
        let satisfied = satisfied_reference(&reference, &ws.ids, ws.any);
        match done.woke {
            Some((cont, got)) => {
                assert!(satisfied, "woke on {id} before {:?} was satisfied", ws.ids);
                assert_eq!(cont, ws.cont);
                assert_eq!(stamps(got), reap_reference(&reference, &ws.ids));
                assert!(!r.in_wait());
                cov.woke += 1;
            }
            None => {
                assert!(!satisfied, "{id} satisfied {:?} but did not wake", ws.ids);
                assert!(r.in_wait());
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn posted_index_agrees_with_linear_scan(
            ops in proptest::collection::vec(
                (0u8..13, any::<u64>(), any::<u64>(), any::<u64>()),
                1..300,
            ),
        ) {
            drive(&ops);
        }
    }

    #[test]
    fn posted_index_oracle_covers_every_path() {
        let mut rng = proptest::test_runner::TestRng::for_case("posted_index_coverage", 0);
        let ops: Vec<_> = (0..20_000)
            .map(|_| {
                (
                    rng.below(13) as u8,
                    rng.next_u64(),
                    rng.next_u64(),
                    rng.next_u64(),
                )
            })
            .collect();
        let cov = drive(&ops);
        assert!(
            cov.matched > 100 && cov.unmatched > 100,
            "deliveries: {}/{}",
            cov.matched,
            cov.unmatched
        );
        assert!(
            cov.wildcard_matched > 10,
            "wildcard matches: {}",
            cov.wildcard_matched
        );
        assert!(
            cov.woke > 10 && cov.blocked > 10,
            "waits: {} woke / {} blocked",
            cov.woke,
            cov.blocked
        );
        assert!(cov.reaped > 100, "reaped: {}", cov.reaped);
        assert!(cov.restored > 10, "restores: {}", cov.restored);
    }

    #[test]
    fn posted_index_empty_probe_and_reuse() {
        let mut r = Requests::default();
        let msg = RtsMessage::new(1, 0, 5, Bytes::new());
        // a rank that never posts probes no class at all
        assert!(r.posted.classes.is_empty());
        assert_eq!(r.match_posted(&msg), None);
        let spec = MatchSpec {
            src: None,
            tag_mask: u64::MAX,
            tag_value: 5,
        };
        let id = r.post(ReqKind::Recv(spec));
        assert_eq!(r.match_posted(&msg), Some(id));
        r.complete(id, Some(msg.clone()));
        assert!(index_keys(&r.posted).is_empty());
        assert_eq!(r.match_posted(&msg), None);
        // reposting reuses the emptied class
        let again = r.post(ReqKind::Recv(spec));
        assert_eq!(r.posted.classes.len(), 1);
        assert_eq!(r.match_posted(&msg), Some(again));
    }
}
