package repro.checkpoint

import repro.dataflow.InstanceId
import scala.collection.immutable.ArraySeq

/** Why a checkpoint was taken. */
sealed trait CkptKind
/** UNC/CIC local timer checkpoint. */
case object LocalCkpt                    extends CkptKind
/** CIC forced checkpoint (Z-cycle prevention). */
case object ForcedCkpt                   extends CkptKind
/** COOR checkpoint belonging to coordinated round `round`. */
final case class CoordinatedCkpt(round: Int) extends CkptKind
/** Synthetic checkpoint 0: empty state at t=0, always durable. */
case object InitialCkpt                  extends CkptKind

/** Everything persisted with one operator-instance checkpoint.
  *
  * `lastSent`/`lastReceived` are the per-channel sequence vectors that the
  * recovery machinery uses for orphan detection (checkpoint-graph edges),
  * replay-range extraction and deduplication: copies of the instance's
  * arrays taken at the checkpoint, indexed like its `outCh`/`inCh`. The
  * topology is fixed per run, so every checkpoint of an instance has the
  * same layout. `snapshot` bundles the logic state; `srcOffset` is the
  * replayable-input position for sources.
  *
  * @param takenAt   virtual time the synchronous snapshot completed
  * @param durableAt virtual time the async upload completed (recovery only
  *                  ever sees checkpoints with durableAt <= failure time)
  * @param counted   whether it counts toward Table III/IV totals (source /
  *                  stateful operators; metadata-only snapshots don't)
  */
final case class CkptMeta(
    id: InstanceId,
    idx: Int,
    kind: CkptKind,
    takenAt: Long,
    durableAt: Long,
    stateBytes: Long,
    snapshot: Any,
    lastSent: ArraySeq.ofLong,
    lastReceived: ArraySeq.ofLong,
    srcOffset: Long,
    counted: Boolean,
    syncMicros: Long,
)
