package repro.checkpoint

import repro.dataflow._

/** Communication-induced checkpointing (CIC, paper §III-C) after HMNR
  * (Hélary–Mostéfaoui–Netzer–Raynal): uncoordinated checkpoints plus loose
  * coordination piggybacked on every data message — a Lamport clock, the
  * vector clock `ckpt`, and the boolean vectors `taken`/`greater` — and a
  * forced-checkpoint rule that breaks Z-cycles before they form, so the
  * domino effect cannot occur.
  *
  * Every operator instance is an HMNR process. Following the paper's
  * summary of the protocol, a checkpoint is forced before delivering m
  * from sender s iff the receiver has sent a message since its last
  * checkpoint and either
  *   - it previously sent to s in this interval and m's clock is greater
  *     than its own (clock-ordered Z-pattern), or
  *   - a Z-path back to the receiver exists in s's current checkpoint
  *     interval (`m.taken[receiver]`), i.e. delivering m would close a
  *     Z-cycle.
  * The `sent_to` qualification is what keeps forced checkpoints rare on
  * forward-only (acyclic) topologies and bounded on cyclic ones; dropping
  * it (a naive reading) makes every clock bump cascade a forced-checkpoint
  * wave around a cycle and livelocks the pipeline.
  *
  * Piggybacks are priced with a realistic compact wire format: varint
  * Lamport clock, delta-encoded vector clock (full vector on first use of
  * a channel), and the two boolean vectors bit-packed in full.
  */
final class Hmnr extends Uncoordinated {
  override def name = "CIC"
  override def features: ProtocolFeatures = ProtocolFeatures(
    blockingMarkers = false, inFlightLogging = true, deduplicationRequired = true,
    messageOverhead = true, independentCheckpoints = true, stragglerStalls = false,
    unusedCheckpoints = true, forcedCheckpoints = true)

  private final class ProcState(n: Int) {
    var lc: Long = 0L
    val ckpt    = new Array[Int](n)
    val taken   = new Array[Boolean](n)
    val greater = new Array[Boolean](n)
    val sentTo  = new Array[Boolean](n)
    var sentSince = false
    // Counts `ckpt` updates; drives delta-encoded piggyback sizing.
    var ckptUpdates: Long = 0L
    // Cached immutable piggyback arrays, shared until the next mutation.
    var snapCkpt: Array[Int] = _
    var snapTaken: Array[Boolean] = _
    var snapGreater: Array[Boolean] = _
    var dirty = true

    def refreshSnap(): Unit = if (dirty) {
      snapCkpt = ckpt.clone(); snapTaken = taken.clone(); snapGreater = greater.clone()
      dirty = false
    }
  }

  private var n = 0
  private var wiring: Wiring = _
  private var procs: Array[ProcState] = _
  /** Sender-side delta-sizing state of each channel, at `sender * n +
    * receiver`: the sender's `ckptUpdates` when it last sent on the
    * channel, or -1 before the channel's first message.
    */
  private var ckptSeen: Array[Long] = _

  override def init(r: ProtocolRuntime): Unit = {
    super.init(r)
    wiring = r.graph.wiring
    n = wiring.instances.size
    procs = Array.fill(n)(new ProcState(n))
    ckptSeen = Array.fill(n * n)(-1L)
  }

  /** Wire size of one piggyback: flags + varint Lamport clock, the two
    * bit-packed boolean vectors (always sent — they mutate on most
    * intervals), and the vector clock as a presence bitmap plus the
    * entries that changed since the last message on this channel (full
    * vector on first use). This is what a competent binary codec achieves;
    * the resulting Table II ratios land in the paper's band and grow with
    * parallelism as the paper's do.
    */
  private def piggyBytes(ps: ProcState, from: Int, to: Int): Int = {
    val ch = from * n + to
    val flags = 2
    val lcBytes = 5
    val bitset = (n + 7) / 8
    val ckptBytes =
      if (ckptSeen(ch) < 0) 2 + 2 * n
      else {
        val changed = math.min(n.toLong, ps.ckptUpdates - ckptSeen(ch))
        2 + bitset + 4 * changed.toInt
      }
    ckptSeen(ch) = ps.ckptUpdates
    flags + lcBytes + ckptBytes + 2 * (1 + bitset)
  }

  override def piggybackFor(sender: InstanceId, channel: ChannelId, now: Long): Option[Piggyback] = {
    val from = wiring.index(sender)
    val to = wiring.index(channel.to)
    val ps = procs(from)
    ps.sentSince = true
    ps.sentTo(to) = true
    ps.refreshSnap()
    val bytes = piggyBytes(ps, from, to)
    Some(Piggyback(ps.lc, ps.snapCkpt, ps.snapTaken, ps.snapGreater, bytes))
  }

  override def beforeApply(inst: Instance, msg: Msg, now: Long): Boolean = {
    val me = inst.index
    val ps = procs(me)
    msg.piggyback match {
      case None => false
      case Some(p) =>
        val sender = wiring.index(msg.channel.from)
        val force = ps.sentSince && ((ps.sentTo(sender) && p.lc > ps.lc) || p.taken(me))
        // Merge the piggybacked knowledge into the receiver's state.
        if (p.lc > ps.lc) ps.lc = p.lc
        var k = 0
        while (k < n) {
          if (p.ckpt(k) > ps.ckpt(k)) {
            ps.ckpt(k) = p.ckpt(k)
            ps.taken(k) = p.taken(k)
            ps.ckptUpdates += 1
            ps.dirty = true
          } else if (p.ckpt(k) == ps.ckpt(k) && p.taken(k) && !ps.taken(k)) {
            ps.taken(k) = true; ps.dirty = true
          }
          k += 1
        }
        // A causal path through the sender's current interval now reaches us.
        if (p.ckpt(sender) >= ps.ckpt(sender) && !ps.taken(sender)) {
          ps.taken(sender) = true; ps.dirty = true
        }
        val g = ps.lc > p.lc
        if (ps.greater(sender) != g) {
          ps.greater(sender) = g; ps.dirty = true
        }
        force
    }
  }

  override def onCheckpoint(inst: Instance, meta: CkptMeta, now: Long): Unit = {
    val me = inst.index
    val ps = procs(me)
    ps.lc += 1
    ps.ckpt(me) += 1
    ps.ckptUpdates += 1
    ps.taken(me) = false
    java.util.Arrays.fill(ps.sentTo, false)
    ps.sentSince = false
    ps.dirty = true
  }

  /** CIC checkpoints persist the protocol vectors alongside the state. */
  override def ckptExtraBytes(inst: Instance): Long = 8L + 4L * n + ((n + 7) / 8) * 2L
}
