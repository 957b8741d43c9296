package repro.dataflow

/** One timed event of the replayable input (the Kafka substitute).
  *
  * @param ts    virtual time at which the event becomes available in the
  *              input queue — end-to-end latency is measured from here
  * @param value record payload
  * @param bytes serialized payload size
  */
final case class SourceEvent(ts: Long, value: Any, bytes: Int)

/** Replayable, offset-addressable input for every source instance.
  *
  * Events are pre-generated and sorted by `ts` per instance; a source
  * instance's durable state is just its offset, and recovery rewinds to the
  * checkpointed offset — exactly the Kafka contract the paper relies on.
  */
final class SourceInput(perInstance: Map[InstanceId, IndexedSeq[SourceEvent]]) {
  perInstance.values.foreach { evs =>
    var i = 1
    while (i < evs.length) {
      require(evs(i - 1).ts <= evs(i).ts, "source events must be sorted by ts")
      i += 1
    }
  }

  def events(id: InstanceId): IndexedSeq[SourceEvent] =
    perInstance.getOrElse(id, IndexedSeq.empty)

  def totalEvents: Long = perInstance.valuesIterator.map(_.size.toLong).sum

  /** Last event availability time across all instances (schedule horizon). */
  def horizon: Long =
    perInstance.valuesIterator.flatMap(_.lastOption).map(_.ts).foldLeft(0L)(math.max)
}

object SourceInput {
  /** Round-robin split of one logical stream across `parallelism` source
    * instances of operator `op`, preserving per-instance ts order.
    */
  def partitioned(op: String, parallelism: Int, events: IndexedSeq[SourceEvent]): SourceInput = {
    val buckets = Array.fill(parallelism)(Vector.newBuilder[SourceEvent])
    events.iterator.zipWithIndex.foreach { case (e, i) => buckets(i % parallelism) += e }
    new SourceInput(
      (0 until parallelism).map(i => InstanceId(op, i) -> buckets(i).result().toIndexedSeq).toMap
    )
  }
}
