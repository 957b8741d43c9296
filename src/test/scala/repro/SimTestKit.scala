package repro

import repro.checkpoint._
import repro.core.{ExpConfig, Experiment, ExpResult}
import repro.dataflow._
import repro.queries.QueryDef
import scala.collection.immutable.ArraySeq
import scala.collection.mutable

/** A protocol decorator that keeps the whole history the runtime's store
  * and log collect away: every checkpoint (in a store of its own), a copy
  * of the instance's seq vectors as each checkpoint completed, every
  * applied data message, the last recovery plan, and the peak number of
  * messages the runtime's log held at a send. Forwards every member.
  */
final class Recorder(val inner: Protocol) extends Protocol {
  /** Every checkpoint ever taken, initial ones included. */
  val store = new StateStore
  /** `inst.lastSent` and `lastReceived` when checkpoint (id, idx) completed. */
  val vectorsAt = mutable.Map.empty[(InstanceId, Int), (ArraySeq.ofLong, ArraySeq.ofLong)]
  /** Every data message applied (deduplicated ones are not applied). */
  val applied = mutable.ArrayBuffer.empty[Msg]
  var lastPlan: Option[RecoveryPlan] = None
  var peakHeldMessages = 0L
  private var rt: ProtocolRuntime = _

  def name: String = inner.name
  def features: ProtocolFeatures = inner.features
  def logsMessages: Boolean = inner.logsMessages
  def supportsCycles: Boolean = inner.supportsCycles

  def init(r: ProtocolRuntime): Unit = {
    rt = r
    r.store.allMetas.foreach(store.put)
    inner.init(r)
  }
  def onStart(): Unit = inner.onStart()
  def onTimer(tag: String, inst: Option[InstanceId], payload: Long, now: Long): Unit =
    inner.onTimer(tag, inst, payload, now)
  def piggybackFor(sender: InstanceId, channel: ChannelId, now: Long): Option[Piggyback] = {
    peakHeldMessages = math.max(peakHeldMessages, rt.log.heldMessages)
    inner.piggybackFor(sender, channel, now)
  }
  def beforeApply(inst: Instance, msg: Msg, now: Long): Boolean = {
    applied += msg
    inner.beforeApply(inst, msg, now)
  }
  def onMarker(inst: Instance, channel: ChannelId, round: Int, now: Long): Unit =
    inner.onMarker(inst, channel, round, now)
  def onCheckpoint(inst: Instance, meta: CkptMeta, now: Long): Unit = {
    store.put(meta)
    vectorsAt((inst.id, meta.idx)) =
      (new ArraySeq.ofLong(inst.lastSent.clone()), new ArraySeq.ofLong(inst.lastReceived.clone()))
    inner.onCheckpoint(inst, meta, now)
  }
  def onDurable(meta: CkptMeta, now: Long): Unit = inner.onDurable(meta, now)
  override def ckptExtraBytes(inst: Instance): Long = inner.ckptExtraBytes(inst)
  def afterResume(now: Long): Unit = inner.afterResume(now)
  def plan(failTime: Long): RecoveryPlan = {
    val p = inner.plan(failTime)
    lastPlan = Some(p)
    p
  }
}

/** Shared helpers for simulator tests: small, fast runs with and without
  * failure, plus the exactly-once comparison harness.
  */
object SimTestKit {

  /** A small test schedule: events over [0, horizon], run long enough to
    * fully drain even after a failure + recovery.
    */
  def testSim(failAt: Option[Long], warmup: Long = 1_000_000L): SimConfig = SimConfig(
    warmupMicros = warmup,
    runMicros = 120_000_000L,
    failAtMicros = failAt,
    coorIntervalMicros = 2_000_000L,
    localIntervalMicros = 1_500_000L,
  )

  /** Run `query` under `protocol` with events over [0, horizonMicros];
    * the run window is generous so everything drains.
    */
  def run(query: QueryDef, protocol: String, parallelism: Int, rate: Double,
      horizonMicros: Long = 20_000_000L, failAt: Option[Long] = None,
      hotRatio: Double = 0.0, seed: Long = 7L): (Runtime, ExpResult) =
    Experiment.run(config(query, protocol, parallelism, rate, horizonMicros, failAt,
      hotRatio, seed))

  /** [[run]] under a [[Recorder]], for tests that look at the whole history. */
  def recordedRun(query: QueryDef, protocol: String, parallelism: Int, rate: Double,
      horizonMicros: Long = 20_000_000L, failAt: Option[Long] = None,
      hotRatio: Double = 0.0, seed: Long = 7L): (Runtime, ExpResult, Recorder) = {
    var rec: Recorder = null
    val (rt, res) = Experiment.run(config(query, protocol, parallelism, rate, horizonMicros,
      failAt, hotRatio, seed), p => { rec = new Recorder(p); rec })
    (rt, res, rec)
  }

  private def config(query: QueryDef, protocol: String, parallelism: Int, rate: Double,
      horizonMicros: Long, failAt: Option[Long], hotRatio: Double, seed: Long): ExpConfig =
    ExpConfig(query, protocol, parallelism, rate, hotRatio,
      sim = testSim(failAt.map(_ - 1_000_000L)), // failAt here is absolute; sim adds warmup
      inputHorizonMicros = Some(horizonMicros), seed = seed)

  /** Steady-state run: input spans the whole measurement window, so byte
    * ratios and checkpoint counts reflect continuous operation (as in the
    * Tables sweep), not an idle tail.
    */
  def steadyRun(query: QueryDef, protocol: String, parallelism: Int, rate: Double,
      durMicros: Long = 20_000_000L, hotRatio: Double = 0.0,
      seed: Long = 7L): (Runtime, ExpResult) = {
    val sim = SimConfig(warmupMicros = 2_000_000L, runMicros = durMicros,
      failAtMicros = None, coorIntervalMicros = 2_000_000L,
      localIntervalMicros = 1_500_000L)
    Experiment.run(ExpConfig(query, protocol, parallelism, rate, hotRatio,
      sim = sim, inputHorizonMicros = Some(sim.endMicros), seed = seed))
  }

  /** Exactly-once harness: digest of a failure-free run must equal the
    * digest of a run that failed and recovered; both runs must drain their
    * input and record zero ledger violations.
    */
  def exactlyOnceCheck(query: QueryDef, protocol: String, parallelism: Int,
      rate: Double, horizonMicros: Long = 20_000_000L,
      failAtAbs: Long = 9_000_000L, seed: Long = 7L): (ExpResult, ExpResult) = {
    val (rtOk, resOk) = run(query, protocol, parallelism, rate, horizonMicros, None, seed = seed)
    val (rtF, resF) =
      run(query, protocol, parallelism, rate, horizonMicros, Some(failAtAbs), seed = seed)
    val dOk = query.sinkDigest(rtOk)
    val dF  = query.sinkDigest(rtF)
    assert(resOk.unconsumed == 0, s"failure-free run left ${resOk.unconsumed} events unconsumed")
    assert(resF.unconsumed == 0, s"recovered run left ${resF.unconsumed} events unconsumed")
    assert(resOk.eoViolations == 0, s"ledger violations in failure-free run: ${resOk.eoViolations}")
    assert(resF.eoViolations == 0, s"ledger violations in recovered run: ${resF.eoViolations}")
    if (dOk != dF) {
      val only1 = dOk.toSet.diff(dF.toSet).take(3)
      val only2 = dF.toSet.diff(dOk.toSet).take(3)
      sys.error(s"digest mismatch for ${query.name}/$protocol: " +
        s"${dOk.size} vs ${dF.size} groups; ok-only=$only1 fail-only=$only2")
    }
    (resOk, resF)
  }
}
