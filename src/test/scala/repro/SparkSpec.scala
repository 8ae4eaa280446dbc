package repro

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.concurrent.Eventually._
import org.scalatest.funsuite.AnyFunSuite
import java.util.UUID
import java.util.concurrent.ConcurrentLinkedQueue
import scala.concurrent.duration._
import scala.jdk.CollectionConverters._

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (the image exports it, or derives ~75% of the cgroup
  * limit). The session's settings are `Session.local`'s.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  override def afterAll(): Unit = { super.afterAll() }

  /** The number of Spark jobs `body` runs, counted by a `SparkListener`
    * under a job group of its own. Jobs of pool threads `body` starts carry
    * the group too: they inherit it from this thread. The listener bus
    * delivers events in order, so once a marker job run after `body` is
    * seen, every job of `body` is too.
    */
  def sparkJobs(body: => Any): Int = {
    val sc     = spark.sparkContext
    val group  = s"jobs-${UUID.randomUUID}"
    val groups = new ConcurrentLinkedQueue[String]()
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id"))).foreach(groups.add)
    }
    def inGroup(g: String)(run: => Any): Unit = {
      sc.setJobGroup(g, g)
      try run finally sc.clearJobGroup()
    }
    sc.addSparkListener(listener)
    try {
      inGroup(group)(body)
      inGroup(s"$group-marker")(sc.parallelize(Seq(1), 1).count())
      eventually(timeout(30.seconds))(assert(groups.contains(s"$group-marker")))
      groups.asScala.count(_ == group)
    } finally sc.removeSparkListener(listener)
  }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = Session.local("repro")
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
