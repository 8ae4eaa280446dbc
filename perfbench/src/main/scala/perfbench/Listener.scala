package perfbench

import java.util.concurrent.ConcurrentHashMap
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import scala.jdk.CollectionConverters._

/** What the benchmark knows about one Spark job once its end event arrived. */
final case class JobRecord(group: Option[String], startMs: Long, endMs: Long,
                           tasks: Int, shuffleBytes: Long, resultBytes: Long)

/** Totals over a set of jobs. */
final case class JobTotals(jobs: Int, tasks: Long, shuffleBytes: Long, resultBytes: Long) {
  def shuffleMb: Double = shuffleBytes / 1e6
  def resultMb: Double  = resultBytes / 1e6
}

object JobTotals {
  def of(jobs: Iterable[JobRecord]): JobTotals =
    JobTotals(jobs.size, jobs.map(_.tasks.toLong).sum, jobs.map(_.shuffleBytes).sum,
      jobs.map(_.resultBytes).sum)
}

/** The benchmark's single listener. It keeps one record per finished job and
  * the storage memory held by cached blocks.
  *
  * The listener bus is asynchronous, so counters read straight after a call
  * returns can miss that call's last events. `sync` runs a marker job and waits
  * for its end event: every event posted before the marker has then arrived.
  * Marker jobs are left out of every record.
  */
final class BenchListener(sc: SparkContext) extends SparkListener {
  import BenchListener.MarkerGroup

  private final class Open(val group: Option[String], val startMs: Long, val stages: Set[Int]) {
    var tasks = 0; var shuffle = 0L; var result = 0L
  }

  private val open      = new ConcurrentHashMap[Int, Open]()
  private val stageJob  = new ConcurrentHashMap[Int, java.lang.Integer]()
  private val finished  = new java.util.concurrent.ConcurrentLinkedQueue[JobRecord]()
  private val markersSeen = new java.util.concurrent.atomic.AtomicLong()
  private val blocks    = new ConcurrentHashMap[String, java.lang.Long]()
  @volatile private var storageNow  = 0L
  @volatile private var storagePeak = 0L

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val group = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id")))
    open.put(e.jobId, new Open(group, e.time, e.stageIds.toSet))
    e.stageIds.foreach(s => stageJob.put(s, Int.box(e.jobId)))
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val job = stageJob.get(e.stageId)
    if (job != null) {
      val o = open.get(job.intValue)
      if (o != null) o.synchronized {
        o.tasks += 1
        val m = e.taskMetrics
        if (m != null) {
          o.shuffle += m.shuffleWriteMetrics.bytesWritten
          o.result  += m.resultSize
        }
      }
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = {
    val o = open.remove(e.jobId)
    if (o != null) {
      o.stages.foreach(stageJob.remove)
      if (o.group.contains(MarkerGroup)) markersSeen.incrementAndGet()
      else finished.add(JobRecord(o.group, o.startMs, e.time, o.tasks, o.shuffle, o.result))
    }
  }

  override def onBlockUpdated(e: SparkListenerBlockUpdated): Unit = synchronized {
    val info = e.blockUpdatedInfo
    val id   = info.blockId.name
    val mem  = if (info.storageLevel.isValid) info.memSize else 0L
    val prev = Option(blocks.get(id)).map(_.longValue).getOrElse(0L)
    if (mem == 0L) blocks.remove(id) else blocks.put(id, mem)
    storageNow += mem - prev
    if (storageNow > storagePeak) storagePeak = storageNow
  }

  /** Wait until every event posted before this call has been delivered. */
  def sync(): Unit = {
    val before = markersSeen.get()
    sc.setJobGroup(MarkerGroup, "listener sync", interruptOnCancel = false)
    try sc.parallelize(Seq(1), 1).count()
    finally sc.clearJobGroup()
    val deadline = System.nanoTime() + 30L * 1000 * 1000 * 1000
    while (markersSeen.get() == before) {
      if (System.nanoTime() > deadline) sys.error("listener bus did not deliver the sync marker")
      Thread.sleep(1)
    }
  }

  /** Jobs finished so far, in end order; call `sync` first. */
  def jobs: Seq[JobRecord] = finished.asScala.toSeq

  /** Bytes of storage memory held by cached blocks now; call `sync` first. */
  def storageBytes: Long = storageNow

  /** Restart the storage peak from the current level. */
  def resetStoragePeak(): Unit = synchronized { storagePeak = storageNow }

  /** Highest storage memory held since the last reset; call `sync` first. */
  def storagePeakBytes: Long = storagePeak
}

object BenchListener {
  val MarkerGroup = "perfbench-sync"

  def install(sc: SparkContext): BenchListener = {
    val l = new BenchListener(sc)
    sc.addSparkListener(l)
    l
  }
}
